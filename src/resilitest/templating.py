"""Dynamic-variable identification and trace templating for replay.

Recorded traffic is state-dependent: timestamps expire, session tokens and
idempotency keys are single-use. A two-stage heuristic finds these fields
without looking at service code:

1. intra-span correlation: request key-paths whose value also appears
   verbatim among the response values of the same span are candidates;
2. inter-span variability: a candidate is confirmed only if its value
   differs across independent instances of the same interface.

Confirmed paths become typed placeholders that are re-filled per replayed
request. A manual registry covers fields the heuristic cannot see (e.g.
computed signatures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .model import (OBJECT, STRING, Span, dumps_canonical, read_lines, read_records,
                    write_lines)

REQ = "req"

KIND_FRESH_ID = "fresh_id"
KIND_TIMESTAMP = "timestamp"
KINDS = (KIND_FRESH_ID, KIND_TIMESTAMP)


class TemplatingError(ValueError):
    pass


def _scalar(value) -> bool:
    # a list or object payload value is never a dynamic variable
    return not isinstance(value, (list, dict))


def check_entry_payload(payload: dict) -> None:
    """Raise ValueError if a value of an entry request's payload is a list or
    an object: the simulator keys its stores by payload values."""
    for key, value in payload.items():
        if not _scalar(value):
            raise ValueError(f"payload value of {key!r} must not be a list or "
                             f"object, got {value!r}")


@dataclass(frozen=True)
class EntryRequest:
    """A replayable entry request: the request line plus its payload."""

    line: str
    payload: dict


@dataclass
class TraceTemplate:
    """The entry request of an interface's representative trace, with the
    kind of each request key-path that is re-filled on every replay."""

    interface_id: str
    trace_id: str       # the representative trace the request comes from
    request: EntryRequest
    placeholders: dict  # request key-path -> kind


@dataclass
class ManualVariableRegistry:
    """Operator-maintained list of variables invisible to the heuristic.

    Persisted one entry per line: `<interface_id> req <key-path> <kind> # note`.
    Only entry requests are replayed, so `req` is the only payload side.
    """

    entries: dict = field(default_factory=dict)  # interface_id -> {key-path: kind}
    provenance: dict = field(default_factory=dict)  # (interface_id, key-path) -> note

    def register(self, interface_id: str, key_path: str, kind: str,
                 note: str = "") -> None:
        if kind not in KINDS:
            raise TemplatingError(f"invalid placeholder kind {kind!r}")
        if not key_path:
            raise TemplatingError("empty key-path")
        self.entries.setdefault(interface_id, {})[key_path] = kind
        if note:
            self.provenance[(interface_id, key_path)] = note

    @classmethod
    def load(cls, path) -> "ManualVariableRegistry":
        reg = cls()
        for where, line in read_lines(path, "registry"):
            fields, _, note = line.partition("#")
            parts = fields.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise TemplatingError(f"{where}: expected 4 fields, got {len(parts)}")
            if parts[1] != REQ:
                raise TemplatingError(f"{where}: invalid payload side "
                                      f"{parts[1]!r}, only {REQ!r} is replayed")
            if parts[2] in reg.entries.get(parts[0], ()):
                raise TemplatingError(f"{where}: key-path {parts[2]!r} listed twice "
                                      f"for interface {parts[0]}")
            try:
                reg.register(parts[0], parts[2], parts[3], note.strip())
            except TemplatingError as exc:
                raise TemplatingError(f"{where}: {exc}") from None
        return reg


def find_intraspan_candidates(span: Span) -> set:
    """Stage 1: request key-paths whose value appears verbatim among response
    values. A list or object value is no candidate."""
    resp_values = {v for v in span.response_payload.values() if _scalar(v)}
    return {path for path, value in span.request_payload.items()
            if _scalar(value) and value in resp_values}


class MemberRoots:
    """Stage 2 of one cluster, fed its members' root spans and holding none:
    their services and endpoints, the union of their stage-1 candidates, and
    per request key-path the number of roots with a scalar value there, the
    first value, whether another differs from it as in a set (`1`, `1.0` and
    `true` do not), and the least and greatest `int()` while all are integers."""

    __slots__ = ("roots", "heads", "candidates", "keys")

    def __init__(self, spans: Iterable[Span] = ()):
        self.roots = 0
        self.heads = set()  # (service, endpoint) of each root
        self.candidates = set()
        self.keys = {}  # key-path -> [roots, first, differs, least, greatest]
        for span in spans:
            self.add(span)

    def add(self, span: Span) -> None:
        self.heads.add((span.service, span.endpoint))
        self.roots += 1
        self.candidates |= find_intraspan_candidates(span)
        for path, value in span.request_payload.items():
            if _scalar(value):
                stat = self.keys.setdefault(path, [0, value, False, math.inf, -math.inf])
                stat[0] += 1
                stat[2] = stat[2] or not (value is stat[1] or value == stat[1])
                if stat[3] is not None:
                    try:
                        number = int(value)
                        stat[3], stat[4] = min(stat[3], number), max(stat[4], number)
                    except (TypeError, ValueError, OverflowError):
                        stat[3] = None

    def confirmed(self) -> set:
        """Candidates with a scalar value in every root and two distinct values."""
        return {path for path in self.candidates
                if (stat := self.keys.get(path)) and stat[0] == self.roots and stat[2]}

    def template(self, base: Span, registry: ManualVariableRegistry, interface_id: str,
                 window: tuple, trace_id: str) -> TraceTemplate:
        """The template of root span `base`, of member `trace_id`: a confirmed
        path is a timestamp if every value is an integer in the recording
        `window`, else a fresh id; registry entries override, for keys of `base`."""
        placeholders = {}
        for path in self.confirmed() if len(self.heads) == 1 else ():
            least, greatest = self.keys[path][3:]
            placeholders[path] = (KIND_TIMESTAMP if least is not None and
                                  window[0] <= least <= greatest <= window[1]
                                  else KIND_FRESH_ID)
        for key_path, kind in registry.entries.get(interface_id, {}).items():
            if key_path in base.request_payload:
                placeholders[key_path] = kind
            # otherwise the entry does not apply to this interface's payload shape
        return TraceTemplate(interface_id=interface_id, trace_id=trace_id,
                             request=EntryRequest(base.operation_name,
                                                  dict(base.request_payload)),
                             placeholders=placeholders)


def build_template(cluster_traces: list, registry: ManualVariableRegistry,
                   interface_id: str, window: tuple, trace_id: str) -> TraceTemplate:
    """The replay template of an interface cluster of `cluster_traces`, on
    the root request of member `trace_id`, as MemberRoots.template makes it."""
    base = next((t for t in cluster_traces if t.trace_id == trace_id), None)
    if base is None:
        raise TemplatingError(f"trace {trace_id!r} is not a member of {interface_id}")
    return MemberRoots(t.root_span() for t in cluster_traces).template(
        base.root_span(), registry, interface_id, window, trace_id)


class SequentialIdSource:
    """Deterministic fresh-id generator; distinct from every recorded value."""

    def __init__(self, prefix: str = "rp"):
        self.prefix = prefix
        self._n = 0

    def __call__(self) -> str:
        self._n += 1
        return f"{self.prefix}-{self._n:08d}"


def instantiate(template: TraceTemplate, now_us: int, id_source: Callable) -> EntryRequest:
    """Materialize the entry request for one replayed call.

    Placeholders are filled in key order: fresh_id paths get the next value
    of `id_source`, timestamp paths get `now_us`. All other payload content
    is byte-identical to the base trace's root request.
    """
    payload = dict(template.request.payload)
    for key in sorted(template.placeholders):
        kind = template.placeholders[key]
        if kind == KIND_FRESH_ID:
            payload[key] = id_source()
        elif kind == KIND_TIMESTAMP:
            payload[key] = str(now_us)
        else:
            raise TemplatingError(f"unknown placeholder kind {kind!r} for {key!r}")
    return EntryRequest(line=template.request.line, payload=payload)


TEMPLATE_FIELDS = {"interface_id": STRING, "trace_id": STRING, "line": STRING,
                   "payload": OBJECT, "placeholders": OBJECT}


def save_templates(templates: list, path) -> None:
    write_lines(path, (dumps_canonical({
        "interface_id": t.interface_id, "trace_id": t.trace_id,
        "line": t.request.line, "payload": t.request.payload,
        "placeholders": t.placeholders}) for t in templates))


def load_templates(path) -> list:
    """Templates of a templates.jsonl file, one record per line; a record
    that is not exactly what save_templates writes, or that repeats an
    interface_id or trace_id, names the file and line."""
    templates = []
    for where, rec in read_records(path, "templates", TEMPLATE_FIELDS, closed=True,
                                   unique=("interface_id", "trace_id")):
        try:
            check_entry_payload(rec["payload"])
            for key, kind in sorted(rec["placeholders"].items()):
                if kind not in KINDS:
                    raise ValueError(f"unknown placeholder kind {kind!r} for {key!r}")
                if key not in rec["payload"]:
                    raise ValueError(f"placeholder {key!r} is not a payload key")
        except ValueError as exc:
            raise TemplatingError(f"{where}: {exc}") from None
        templates.append(TraceTemplate(rec["interface_id"], rec["trace_id"],
                                       EntryRequest(rec["line"], rec["payload"]),
                                       rec["placeholders"]))
    return templates
