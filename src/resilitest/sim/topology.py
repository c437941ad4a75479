"""Declarative topology for the deterministic microservice simulator.

A topology declares services, their interfaces (entry fields with validation
rules, response fields, and a workflow of component/call steps), and the
seeded resilience bugs used as detection ground truth. It stands in for the
instrumented production system: the simulator intercepts every step, so
faults can be armed at any (component, framework, method) endpoint.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from ..model import (BOOLEAN, COUNT, INTEGER, OBJECTS, PAIRS, POSITIVE,
                     POSITIVE_OR_NULL, STRING, WRITE_METHODS, Endpoint, RequestLineError,
                     check_fields, dumps_canonical, one_of, parse_request_line, write_lines)

ON_ERROR_PROPAGATE = "propagate"
ON_ERROR_CATCH = "catch_and_degrade"
ON_ERROR_IGNORE = "ignore"
ON_ERRORS = (ON_ERROR_PROPAGATE, ON_ERROR_CATCH, ON_ERROR_IGNORE)

BUG_MISSING_TIMEOUT = "missing_timeout"
BUG_FIRE_AND_FORGET = "fire_and_forget"
BUG_NO_ROLLBACK = "no_rollback"
BUG_NO_RETRY = "no_retry"
BUG_SWALLOW = "swallow_then_succeed"
BUG_FLAGS = (BUG_MISSING_TIMEOUT, BUG_FIRE_AND_FORGET, BUG_NO_ROLLBACK,
             BUG_NO_RETRY, BUG_SWALLOW)

FIELD_KINDS = ("data", "static", "timestamp", "session", "idempotency", "signature")
VALIDATE_NONE = "none"
VALIDATE_FRESH = "fresh_window"
VALIDATE_SINGLE_USE = "single_use"
VALIDATIONS = (VALIDATE_NONE, VALIDATE_FRESH, VALIDATE_SINGLE_USE)

OP_DB = "db"
OP_CACHE = "cache"
OP_MQ = "mq"
OP_CALL = "call"
OPS = (OP_DB, OP_CACHE, OP_MQ, OP_CALL)

_OP_COMPONENT = {OP_DB: "Database", OP_CACHE: "Cache", OP_MQ: "MQ"}
CALL_COMPONENTS = ("HTTP", "RPC")

# markers of Step.arg_plan entries that do not read a step output
ARG_REQ = "req"
ARG_LIT = "lit"
ARG_SOURCE = re.compile(r"req\.|lit:|out:[0-9]+(\.|$)")
RESP_SOURCE = re.compile(r"(lit|echo|derive):|token\Z")

DEFAULT_TIMEOUT_US = 1_000_000
# The most call hops below an entry: the simulator nests three Python frames a hop
MAX_CALL_DEPTH = 100


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class FieldSpec:
    path: str
    kind: str = "data"
    validate: str = VALIDATE_NONE
    echo: bool = False
    value: str = ""  # literal for static fields


@dataclass(frozen=True)
class RespField:
    path: str
    # source: "lit:<v>" (literal), "echo:<req path>", "derive:<req path>"
    # (deterministic token derived from a request value), "token" (fresh)
    source: str


@dataclass(frozen=True)
class Step:
    op: str
    method: str
    framework: str
    args: tuple = ()  # ((span request field, source expr), ...)
    table: str = ""
    topic: str = ""
    target_service: str = ""
    target_line: str = ""   # concrete "METHOD /path" of the callee interface
    component: str = ""     # derived for db/cache/mq; HTTP or RPC for calls
    timeout_us: Optional[int] = DEFAULT_TIMEOUT_US
    retries: int = 0
    async_step: bool = False
    on_error: str = ON_ERROR_PROPAGATE
    best_effort: bool = False
    bug: str = ""

    def __post_init__(self):
        # built once; not fields, so equality, hash and repr are unchanged
        component = _OP_COMPONENT.get(self.op, self.component)
        object.__setattr__(self, "_endpoint",
                           Endpoint(component, self.framework, self.method))
        # ((name, output index or ARG_REQ/ARG_LIT, path or literal), ...);
        # a source ARG_SOURCE does not match is left out (validate_topology rejects it)
        plan = []
        for name, source in self.args:
            if source.startswith("req."):
                plan.append((name, ARG_REQ, source[4:]))
            elif source.startswith("out:") and ARG_SOURCE.match(source):
                ref, _, path = source[4:].partition(".")
                plan.append((name, int(ref), path))
            elif source.startswith("lit:"):
                plan.append((name, ARG_LIT, source[4:]))
        object.__setattr__(self, "arg_plan", tuple(plan))

    def endpoint(self) -> Endpoint:
        return self._endpoint

    def is_write(self) -> bool:
        return self.method in WRITE_METHODS


@dataclass(frozen=True)
class InterfaceSpec:
    method: str
    uri_template: str  # "/svc/noun/verb" with optional "{param}" segments
    fields: tuple = ()
    resp_fields: tuple = ()
    workflow: tuple = ()
    compensate: bool = False

    def __post_init__(self):
        # computed once; not fields, so equality and the codec are unchanged:
        # the checked and echoed entry fields, and the (path, kind, literal or
        # request path) of each response field validate_topology accepts
        object.__setattr__(self, "line", f"{self.method} {self.uri_template}")
        object.__setattr__(self, "checks", tuple(
            (fs.path, fs.validate) for fs in self.fields
            if fs.validate in (VALIDATE_FRESH, VALIDATE_SINGLE_USE)))
        object.__setattr__(self, "echo_paths",
                           tuple(fs.path for fs in self.fields if fs.echo))
        plan = []
        for rf in self.resp_fields:
            match = RESP_SOURCE.match(rf.source)
            if match:
                plan.append((rf.path, match[1] or "token", rf.source[match.end():]))
        object.__setattr__(self, "resp_plan", tuple(plan))


@dataclass(frozen=True)
class ServiceSpec:
    name: str
    interfaces: tuple = ()
    workers: int = 4
    queue_limit: int = 64


@dataclass(frozen=True)
class TopologySpec:
    name: str
    seed: int
    services: tuple = ()
    boot_us: int = 30_000_000
    entry_deadline_us: int = 5_000_000
    validation_skew_us: int = 30_000_000

    def digest(self) -> str:
        return hashlib.sha256(dumps_canonical(topology_to_record(self)).encode()).hexdigest()[:16]

    def interfaces(self):
        for svc in self.services:
            for iface in svc.interfaces:
                yield svc, iface

    @cached_property
    def _declared(self) -> dict:
        """Interface line -> (service, interface) of its first declaration."""
        return {iface.line: (svc, iface) for svc, iface in reversed([*self.interfaces()])}

    def route(self, line: str) -> Optional[tuple]:
        """(service, interface) serving request `line`, an entry's or a call's
        alike: the interface declaring the line, else the first declared whose
        method is the line's and whose template matches its path, a "{param}"
        segment matching any one segment. None for no match or a malformed line."""
        if line in self._declared:
            return self._declared[line]
        try:
            method, tokens = parse_request_line(line)
        except RequestLineError:
            return None
        for svc, iface in self.interfaces():
            template = iface.uri_template.split("/")[1:] if iface.uri_template != "/" else []
            if iface.method == method and len(template) == len(tokens) and all(
                    expected == actual or expected.startswith("{") and expected.endswith("}")
                    for expected, actual in zip(template, tokens)):
                return svc, iface
        return None

    @cached_property
    def units(self) -> frozenset:
        """(service name, Endpoint) of each step: the units a fault can arm."""
        return frozenset((svc.name, step.endpoint())
                         for svc, iface in self.interfaces() for step in iface.workflow)

    def seeded_bugs(self) -> list:
        """(bug flag, service, interface line, step index) ground truth."""
        out = []
        for svc, iface in self.interfaces():
            for idx, step in enumerate(iface.workflow):
                if step.bug:
                    out.append((step.bug, svc.name, iface.line, idx))
        return out

    def bug_free(self) -> "TopologySpec":
        """The same topology with every seeded bug fixed."""
        services = []
        for svc in self.services:
            interfaces = []
            for iface in svc.interfaces:
                compensate = iface.compensate
                steps = []
                for step in iface.workflow:
                    if step.bug == BUG_MISSING_TIMEOUT:
                        step = replace(step, bug="", timeout_us=DEFAULT_TIMEOUT_US)
                    elif step.bug == BUG_FIRE_AND_FORGET:
                        step = replace(step, bug="", on_error=ON_ERROR_CATCH)
                    elif step.bug == BUG_NO_ROLLBACK:
                        step = replace(step, bug="", on_error=ON_ERROR_PROPAGATE,
                                       async_step=False)
                        compensate = True
                    elif step.bug == BUG_NO_RETRY:
                        step = replace(step, bug="", retries=1)
                    elif step.bug == BUG_SWALLOW:
                        step = replace(step, bug="", on_error=ON_ERROR_PROPAGATE)
                    steps.append(step)
                interfaces.append(replace(iface, workflow=tuple(steps),
                                          compensate=compensate))
            services.append(replace(svc, interfaces=tuple(interfaces)))
        return replace(self, name=f"{self.name}-bugfree", services=tuple(services))


def validate_topology(spec: TopologySpec) -> None:
    """Reject records that do not fit together, naming the place: the kind
    and range of each value are the reader's check."""
    names = [s.name for s in spec.services]
    if len(names) != len(set(names)):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise TopologyError(f"duplicate service names: {dupes}")

    lines = {}
    for svc, iface in spec.interfaces():
        where = f"{svc.name} {iface.line}"
        try:
            parse_request_line(iface.line)  # the grammar every request line is read by
        except RequestLineError as exc:
            raise TopologyError(f"{where}: {exc}") from None
        if iface.line in lines:
            raise TopologyError(f"{where}: interface line already declared by {lines[iface.line]}")
        lines[iface.line] = svc.name

    for svc, iface in spec.interfaces():
        where = f"{svc.name} {iface.line}"
        for rf in iface.resp_fields:
            if not RESP_SOURCE.match(rf.source):
                raise TopologyError(f"{where}: response field {rf.path!r} has unknown "
                                    f"source {rf.source!r}")
        for idx, step in enumerate(iface.workflow):
            loc = f"{where} step {idx}"
            if step.async_step and step.on_error == ON_ERROR_PROPAGATE:
                raise TopologyError(f"{loc}: async steps cannot propagate errors")
            if step.bug == BUG_MISSING_TIMEOUT and step.timeout_us is not None:
                raise TopologyError(f"{loc}: missing_timeout step must have no timeout")
            if step.op == OP_CALL:
                if step.component not in CALL_COMPONENTS:
                    raise TopologyError(f"{loc}: call component must be HTTP or RPC")
                if step.target_service not in names:
                    raise TopologyError(f"{loc}: call targets undeclared service "
                                        f"{step.target_service!r}")
                if lines.get(step.target_line) != step.target_service:
                    raise TopologyError(f"{loc}: call targets unknown interface "
                                        f"{step.target_line!r} of {step.target_service}")
                if "{" in step.target_line:
                    raise TopologyError(f"{loc}: call target must be a concrete line")
            for _, source in step.args:
                if not ARG_SOURCE.match(source):
                    raise TopologyError(f"{loc}: bad arg source {source!r}")
            for _, ref, _ in step.arg_plan:
                if isinstance(ref, int) and ref >= idx:
                    raise TopologyError(f"{loc}: arg references later step {ref}")

    below = {}  # "<service> <line>" -> the most call hops below it; None while walked

    def walk(svc, iface, path: list) -> int:  # path: its callers, outermost first
        key = f"{svc.name} {iface.line}"
        if below.get(key, 0) is None:
            raise TopologyError(f"call cycle: {' -> '.join(path[path.index(key):] + [key])}")
        if key not in below and len(path) <= MAX_CALL_DEPTH:
            below[key] = None
            below[key] = max((1 + walk(*spec.route(step.target_line), path + [key])
                              for step in iface.workflow if step.op == OP_CALL), default=0)
        if len(path) + below.get(key, 1) > MAX_CALL_DEPTH:
            raise TopologyError(f"{(path or [key])[0]}: a call chain of more than "
                                f"{MAX_CALL_DEPTH} hops")
        return below[key]

    for svc, iface in spec.interfaces():
        walk(svc, iface, [])


# --- JSON (de)serialization -------------------------------------------------

def _step_record(step: Step) -> dict:
    rec = {"op": step.op, "method": step.method, "framework": step.framework,
           "args": [[k, v] for k, v in step.args], "on_error": step.on_error,
           "timeout_us": step.timeout_us, "retries": step.retries}
    if step.table:
        rec["table"] = step.table
    if step.topic:
        rec["topic"] = step.topic
    if step.target_service:
        rec["target_service"] = step.target_service
        rec["target_line"] = step.target_line
    if step.component:
        rec["component"] = step.component
    if step.async_step:
        rec["async"] = True
    if step.best_effort:
        rec["best_effort"] = True
    if step.bug:
        rec["bug"] = step.bug
    return rec


def topology_to_record(spec: TopologySpec) -> dict:
    return {
        "format": "resilitest-topology",
        "version": 1,
        "name": spec.name,
        "seed": spec.seed,
        "boot_us": spec.boot_us,
        "entry_deadline_us": spec.entry_deadline_us,
        "validation_skew_us": spec.validation_skew_us,
        "services": [
            {
                "name": svc.name,
                "workers": svc.workers,
                "queue_limit": svc.queue_limit,
                "interfaces": [
                    {
                        "method": i.method,
                        "uri": i.uri_template,
                        "compensate": i.compensate,
                        "fields": [
                            {"path": f.path, "kind": f.kind, "validate": f.validate,
                             "echo": f.echo, "value": f.value}
                            for f in i.fields
                        ],
                        "resp": [{"path": r.path, "source": r.source} for r in i.resp_fields],
                        "workflow": [_step_record(s) for s in i.workflow],
                    }
                    for i in svc.interfaces
                ],
            }
            for svc in spec.services
        ],
    }


# Each topology record's keys: (required, optional), key -> kind. The reader
# passes them to the record's dataclass, with uri, resp and async renamed.
_DOCUMENT = ({"format": one_of("resilitest-topology"), "version": one_of(1),
              "name": STRING, "seed": INTEGER},
             {"services": OBJECTS, "boot_us": COUNT, "entry_deadline_us": POSITIVE,
              "validation_skew_us": COUNT})
_SERVICE = ({"name": STRING}, {"interfaces": OBJECTS, "workers": POSITIVE, "queue_limit": COUNT})
_INTERFACE = ({"method": STRING, "uri": STRING}, {"compensate": BOOLEAN, "fields": OBJECTS,
                                                  "resp": OBJECTS, "workflow": OBJECTS})
_FIELD = ({"path": STRING}, {"kind": one_of(*FIELD_KINDS), "validate": one_of(*VALIDATIONS),
                             "echo": BOOLEAN, "value": STRING})
_RESP = ({"path": STRING, "source": STRING}, {})
_STEP = ({"op": one_of(*OPS), "method": STRING, "framework": STRING,
          "timeout_us": POSITIVE_OR_NULL},
         {"args": PAIRS, "retries": COUNT, "async": BOOLEAN, "on_error": one_of(*ON_ERRORS),
          "best_effort": BOOLEAN, "bug": one_of("", *BUG_FLAGS)})
# a step's keys by its op, with the keys only that op reads: a db, cache or
# mq step's component is its op's
_STEPS = {op: (_STEP[0], {**_STEP[1], **keys}) for op, keys in (
    (OP_DB, {"table": STRING}), (OP_CACHE, {"table": STRING}), (OP_MQ, {"topic": STRING}),
    (OP_CALL, {"target_service": STRING, "target_line": STRING, "component": STRING}))}
_RENAME = {"uri": "uri_template", "resp": "resp_fields", "async": "async_step"}


def _checked(rec, place: str, keys: tuple) -> dict:
    """`rec`, once check_fields finds in it the `keys` and no other key; else
    TopologyError at `place`."""
    try:
        return check_fields(rec, *keys, closed=True)
    except ValueError as exc:
        raise TopologyError(f"{place}: {exc}") from None


def _spec(cls, rec: dict, **built):
    """The `cls` of the checked record `rec`: each key that names a field
    of `cls`, once renamed, gives its value, or `built` does."""
    given = {_RENAME.get(key, key): value for key, value in rec.items()}
    given.update(built)
    return cls(**{key: given[key] for key in cls.__dataclass_fields__ if key in given})


def _name(rec, fallback: str) -> str:
    """The name `rec` gives itself, if it is a record with a string name."""
    name = rec.get("name") if rec.__class__ is dict else None
    return name if name.__class__ is str else fallback


def _op(step: dict):
    """The op of `step`, if it is a string; else None."""
    op = step.get("op")
    return op if op.__class__ is str else None


def topology_from_record(rec) -> TopologySpec:
    """The topology a document holds; else TopologyError names the place at fault."""
    _checked(rec, f"topology {_name(rec, 'unnamed')}", _DOCUMENT)
    services = []
    for n, svc in enumerate(rec.get("services", ())):
        name = _checked(svc, _name(svc, f"services[{n}]"), _SERVICE)["name"]
        interfaces = []
        for i in svc.get("interfaces", ()):
            line = f"{name} {i.get('method')} {i.get('uri')}"
            _checked(i, line, _INTERFACE)
            workflow = tuple(_spec(Step, _checked(step, f"{line} step {idx}",
                                                  _STEPS.get(_op(step), _STEP)),
                                   args=tuple(map(tuple, step.get("args", ()))))
                             for idx, step in enumerate(i.get("workflow", ())))
            interfaces.append(_spec(
                InterfaceSpec, i, workflow=workflow,
                fields=tuple(FieldSpec(**_checked(f, line, _FIELD)) for f in i.get("fields", ())),
                resp_fields=tuple(RespField(**_checked(r, line, _RESP)) for r in i.get("resp", ()))))
        services.append(_spec(ServiceSpec, svc, interfaces=tuple(interfaces)))
    spec = _spec(TopologySpec, rec, services=tuple(services))
    validate_topology(spec)
    return spec


def save_topology(spec: TopologySpec, path) -> None:
    write_lines(path, [json.dumps(topology_to_record(spec), indent=1, sort_keys=True)])


def load_topology(path) -> TopologySpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return topology_from_record(json.load(fh))
        except json.JSONDecodeError as exc:
            raise TopologyError(f"topology {path}: malformed JSON: {exc}") from None
        except TopologyError as exc:
            raise TopologyError(f"topology {path}: {exc}") from None
