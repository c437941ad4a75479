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

    def save(self, path) -> None:
        notes = {key: f"  # {note}" for key, note in self.provenance.items()}
        write_lines(path, (f"{interface_id} {REQ} {key_path} {kinds[key_path]}"
                           f"{notes.get((interface_id, key_path), '')}"
                           for interface_id, kinds in sorted(self.entries.items())
                           for key_path in sorted(kinds)))

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


def confirm_dynamic_variables(spans: list) -> set:
    """Stage 2: keep intra-span candidates whose value is not constant across spans.

    Candidates are the union of per-span stage-1 results; a candidate missing
    from some span's request is skipped (no evidence either way), and so is
    one that holds a list or object value in some span's request. Fewer than
    two spans show no variability, so they confirm nothing.
    """
    candidates = set()
    for span in spans:
        candidates |= find_intraspan_candidates(span)
    confirmed = set()
    for path in candidates:
        values = []
        for span in spans:
            if path not in span.request_payload or not _scalar(span.request_payload[path]):
                break
            values.append(span.request_payload[path])
        else:
            if len(set(values)) > 1:
                confirmed.add(path)
    return confirmed


def _spans_comparable(spans: list) -> bool:
    first = spans[0]
    return all(s.service == first.service and s.endpoint == first.endpoint for s in spans)


def _infer_kind(values: Iterable[str], window: tuple) -> str:
    # A path is a timestamp if every observed value is an integer inside the
    # corpus recording window; everything else auto-detected is a fresh id.
    lo, hi = window
    for value in values:
        try:
            v = int(value)
        except (TypeError, ValueError):
            return KIND_FRESH_ID
        if not (lo <= v <= hi):
            return KIND_FRESH_ID
    return KIND_TIMESTAMP


def build_template(cluster_traces: list, registry: ManualVariableRegistry,
                   interface_id: str, window: tuple, trace_id: str) -> TraceTemplate:
    """Build the replay template for one interface cluster.

    The base trace is the member `trace_id`, the trace selection picks for
    the interface. Its root request is what replay sends. `window` is the
    corpus recording window that timestamp values are inferred against.
    Placeholders are the two-stage heuristic's paths over the members' root
    spans; registry entries for this interface override them, for the keys
    present in the base root request.
    """
    base = next((t for t in cluster_traces if t.trace_id == trace_id), None)
    if base is None:
        raise TemplatingError(f"trace {trace_id!r} is not a member of {interface_id}")

    placeholders = {}
    roots = [t.root_span() for t in cluster_traces]
    if _spans_comparable(roots):
        for path in confirm_dynamic_variables(roots):
            placeholders[path] = _infer_kind((s.request_payload[path] for s in roots), window)

    root = base.root_span()
    for key_path, kind in registry.entries.get(interface_id, {}).items():
        if key_path in root.request_payload:
            placeholders[key_path] = kind
        # otherwise the entry does not apply to this interface's payload shape

    return TraceTemplate(interface_id=interface_id, trace_id=base.trace_id,
                         request=EntryRequest(root.operation_name,
                                              dict(root.request_payload)),
                         placeholders=placeholders)


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
