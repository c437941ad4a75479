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
from typing import Optional

from ..model import WRITE_METHODS, Endpoint, dumps_canonical, write_lines

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
DEFAULT_WORKERS = 4
DEFAULT_QUEUE_LIMIT = 64
DEFAULT_BOOT_US = 30_000_000
DEFAULT_ENTRY_DEADLINE_US = 5_000_000
DEFAULT_VALIDATION_SKEW_US = 30_000_000


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
        # computed once; not a field, so equality and the codec are unchanged
        object.__setattr__(self, "line", f"{self.method} {self.uri_template}")

    def matches_path(self, path_tokens: list) -> bool:
        template = self.uri_template.split("/")[1:] if self.uri_template != "/" else []
        if len(template) != len(path_tokens):
            return False
        for expected, actual in zip(template, path_tokens):
            if expected.startswith("{") and expected.endswith("}"):
                continue
            if expected != actual:
                return False
        return True


@dataclass(frozen=True)
class ServiceSpec:
    name: str
    interfaces: tuple = ()
    workers: int = DEFAULT_WORKERS
    queue_limit: int = DEFAULT_QUEUE_LIMIT


@dataclass(frozen=True)
class TopologySpec:
    name: str
    seed: int
    services: tuple = ()
    boot_us: int = DEFAULT_BOOT_US
    entry_deadline_us: int = DEFAULT_ENTRY_DEADLINE_US
    validation_skew_us: int = DEFAULT_VALIDATION_SKEW_US

    def digest(self) -> str:
        return hashlib.sha256(dumps_canonical(topology_to_record(self)).encode()).hexdigest()[:16]

    def service(self, name: str) -> ServiceSpec:
        for svc in self.services:
            if svc.name == name:
                return svc
        raise TopologyError(f"unknown service {name!r}")

    def interfaces(self):
        for svc in self.services:
            for iface in svc.interfaces:
                yield svc, iface

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


def _check_count(where: str, name: str, value, least: int) -> None:
    if type(value) is not int or value < least:  # bools are not counts
        raise TopologyError(f"{where}: {name} must be an integer >= {least}, got {value!r}")


def validate_topology(spec: TopologySpec) -> None:
    """Reject invariant violations with their locations."""
    for name, least in (("boot_us", 0), ("entry_deadline_us", 1),
                        ("validation_skew_us", 0)):
        _check_count(f"topology {spec.name}", name, getattr(spec, name), least)
    for svc in spec.services:
        _check_count(svc.name, "workers", svc.workers, 1)
        _check_count(svc.name, "queue_limit", svc.queue_limit, 0)
    names = [s.name for s in spec.services]
    if len(names) != len(set(names)):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise TopologyError(f"duplicate service names: {dupes}")

    lines = {}
    for svc, iface in spec.interfaces():
        if iface.line in lines:
            raise TopologyError(
                f"{svc.name}/{iface.line}: interface line already declared by {lines[iface.line]}")
        lines[iface.line] = svc.name

    for svc, iface in spec.interfaces():
        where = f"{svc.name} {iface.line}"
        for fs in iface.fields:
            if fs.kind not in FIELD_KINDS:
                raise TopologyError(f"{where}: field {fs.path!r} has unknown kind {fs.kind!r}")
            if fs.validate not in VALIDATIONS:
                raise TopologyError(f"{where}: field {fs.path!r} has unknown validation {fs.validate!r}")
        for rf in iface.resp_fields:
            if not (isinstance(rf.source, str) and RESP_SOURCE.match(rf.source)):
                raise TopologyError(f"{where}: response field {rf.path!r} has unknown "
                                    f"source {rf.source!r}")
        for idx, step in enumerate(iface.workflow):
            loc = f"{where} step {idx}"
            if step.op not in OPS:
                raise TopologyError(f"{loc}: unknown op {step.op!r}")
            if step.on_error not in ON_ERRORS:
                raise TopologyError(f"{loc}: unknown on_error {step.on_error!r}")
            _check_count(loc, "retries", step.retries, 0)
            if step.timeout_us is not None:
                _check_count(loc, "timeout_us", step.timeout_us, 1)
            if step.bug and step.bug not in BUG_FLAGS:
                raise TopologyError(f"{loc}: unknown bug flag {step.bug!r}")
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
                target = spec.service(step.target_service)
                if not any(i.line == step.target_line for i in target.interfaces):
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


def _step_from(rec: dict) -> Step:
    return Step(
        op=rec["op"], method=rec["method"], framework=rec["framework"],
        args=tuple((k, v) for k, v in rec.get("args", [])),
        table=rec.get("table", ""), topic=rec.get("topic", ""),
        target_service=rec.get("target_service", ""),
        target_line=rec.get("target_line", ""),
        component=rec.get("component", ""),
        timeout_us=rec.get("timeout_us"), retries=rec.get("retries", 0),
        async_step=rec.get("async", False), on_error=rec.get("on_error", ON_ERROR_PROPAGATE),
        best_effort=rec.get("best_effort", False), bug=rec.get("bug", ""),
    )


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


def _objects(rec: dict, key: str) -> list:
    """The list of objects under `key` of `rec` (none if absent)."""
    items = rec.get(key, [])
    if type(items) is not list or any(type(item) is not dict for item in items):
        raise TopologyError(f"{key} must be a list of objects")
    return items


def topology_from_record(rec: dict) -> TopologySpec:
    if type(rec) is not dict or rec.get("format") != "resilitest-topology":
        raise TopologyError("not a resilitest topology document")
    if rec.get("version") != 1:
        raise TopologyError(f"unsupported topology version {rec.get('version')!r}")
    services = []
    records = _objects(rec, "services")
    try:
        for n, svc in enumerate(records):
            where = f"services[{n}]"  # the service, interface or step being read
            name = where = svc["name"]
            interfaces = []
            for i in _objects(svc, "interfaces"):
                where = line = f"{name} {i['method']} {i['uri']}"
                fields = tuple(FieldSpec(path=f["path"], kind=f.get("kind", "data"),
                                         validate=f.get("validate", VALIDATE_NONE),
                                         echo=f.get("echo", False), value=f.get("value", ""))
                               for f in _objects(i, "fields"))
                resp_fields = tuple(RespField(path=r["path"], source=r["source"])
                                    for r in _objects(i, "resp"))
                workflow = []
                for idx, step in enumerate(_objects(i, "workflow")):
                    where = f"{line} step {idx}"
                    workflow.append(_step_from(step))
                interfaces.append(InterfaceSpec(
                    method=i["method"], uri_template=i["uri"],
                    compensate=i.get("compensate", False), fields=fields,
                    resp_fields=resp_fields, workflow=tuple(workflow)))
            services.append(ServiceSpec(name=name, interfaces=tuple(interfaces),
                                        workers=svc.get("workers", DEFAULT_WORKERS),
                                        queue_limit=svc.get("queue_limit", DEFAULT_QUEUE_LIMIT)))
    except KeyError as exc:
        raise TopologyError(f"{where}: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise TopologyError(f"{where}: {exc}") from None
    spec = TopologySpec(
        name=rec.get("name", "unnamed"),
        seed=rec.get("seed", 0),
        services=tuple(services),
        boot_us=rec.get("boot_us", DEFAULT_BOOT_US),
        entry_deadline_us=rec.get("entry_deadline_us", DEFAULT_ENTRY_DEADLINE_US),
        validation_skew_us=rec.get("validation_skew_us", DEFAULT_VALIDATION_SKEW_US),
    )
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
