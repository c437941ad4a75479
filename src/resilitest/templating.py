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

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .model import Span, Trace, dumps_canonical, trace_from_record, trace_to_record
from .selection import representative_key

REQ = "req"
RESP = "resp"
SIDES = (REQ, RESP)

KIND_FRESH_ID = "fresh_id"
KIND_TIMESTAMP = "timestamp"
KINDS = (KIND_FRESH_ID, KIND_TIMESTAMP)


class TemplatingError(Exception):
    pass


class InsufficientEvidenceError(TemplatingError):
    """Fewer than two spans: inter-span variability cannot be assessed."""


@dataclass(frozen=True)
class DynamicPath:
    span_position: int
    side: str  # req | resp
    key_path: str

    def as_tuple(self) -> tuple:
        return (self.span_position, self.side, self.key_path)


@dataclass
class TraceTemplate:
    interface_id: str
    base_trace: Trace
    dynamic_paths: set  # of DynamicPath
    placeholder_kinds: dict  # DynamicPath -> kind


@dataclass(frozen=True)
class RegistryEntry:
    interface_id: str
    side: str
    key_path: str
    kind: str


@dataclass
class ManualVariableRegistry:
    """Operator-maintained list of variables invisible to the heuristic.

    Persisted one entry per line: `<interface_id> <req|resp> <key-path> <kind> # note`.
    """

    entries: set = field(default_factory=set)
    provenance: dict = field(default_factory=dict)

    def register(self, interface_id: str, side: str, key_path: str, kind: str,
                 note: str = "") -> None:
        if side not in SIDES:
            raise TemplatingError(f"invalid payload side {side!r}")
        if kind not in KINDS:
            raise TemplatingError(f"invalid placeholder kind {kind!r}")
        if not key_path:
            raise TemplatingError("empty key-path")
        entry = RegistryEntry(interface_id, side, key_path, kind)
        self.entries.add(entry)
        if note:
            self.provenance[entry] = note

    def for_interface(self, interface_id: str) -> list:
        hits = [e for e in self.entries if e.interface_id == interface_id]
        return sorted(hits, key=lambda e: (e.side, e.key_path, e.kind))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in sorted(self.entries,
                                key=lambda e: (e.interface_id, e.side, e.key_path, e.kind)):
                note = self.provenance.get(entry, "")
                suffix = f"  # {note}" if note else ""
                fh.write(f"{entry.interface_id} {entry.side} {entry.key_path} {entry.kind}{suffix}\n")

    @classmethod
    def load(cls, path) -> "ManualVariableRegistry":
        reg = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                note = raw.split("#", 1)[1].strip() if "#" in raw else ""
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 4:
                    raise TemplatingError(f"registry line {line_no}: expected 4 fields, got {len(parts)}")
                reg.register(parts[0], parts[1], parts[2], parts[3], note)
        return reg


def find_intraspan_candidates(span: Span) -> set:
    """Stage 1: request key-paths whose value appears verbatim among response values."""
    resp_values = set(span.response_payload.values())
    return {path for path, value in span.request_payload.items() if value in resp_values}


def confirm_dynamic_variables(spans: list) -> set:
    """Stage 2: keep intra-span candidates whose value is not constant across spans.

    Candidates are the union of per-span stage-1 results; a candidate missing
    from some span's request is skipped (no evidence either way).
    """
    if len(spans) < 2:
        raise InsufficientEvidenceError(f"need at least 2 spans, got {len(spans)}")
    candidates = set()
    for span in spans:
        candidates |= find_intraspan_candidates(span)
    confirmed = set()
    for path in candidates:
        values = []
        for span in spans:
            if path not in span.request_payload:
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
                   interface_id: str, window: tuple, scores: dict) -> TraceTemplate:
    """Build the replay template for one interface cluster.

    The base trace is the member with the highest complexity score in
    `scores` (0.0 when absent), ties to the lowest trace ID: the trace
    selection picks for the interface. `window` is the corpus recording
    window that timestamp values are inferred against. Auto-detected paths
    use the two-stage heuristic per span position; registry entries for this
    interface are unioned in at the root span.
    """
    if not cluster_traces:
        raise TemplatingError("cannot build a template from zero traces")

    base = min(cluster_traces, key=lambda t: representative_key(
        scores.get(t.trace_id, 0.0), t.trace_id))
    dynamic_paths = set()
    kinds = {}

    min_len = min(len(t.spans) for t in cluster_traces)
    for pos in range(min_len):
        spans = [t.spans[pos] for t in cluster_traces]
        if not _spans_comparable(spans):
            continue
        try:
            confirmed = confirm_dynamic_variables(spans)
        except InsufficientEvidenceError:
            confirmed = set()
        for path in confirmed:
            dp = DynamicPath(pos, REQ, path)
            dynamic_paths.add(dp)
            kinds[dp] = _infer_kind((s.request_payload[path] for s in spans), window)

    root_pos = next(i for i, s in enumerate(base.spans) if s.span_id == base.root)
    root = base.spans[root_pos]
    for entry in registry.for_interface(interface_id):
        payload = root.request_payload if entry.side == REQ else root.response_payload
        if entry.key_path not in payload:
            continue  # registry entry does not apply to this interface's payload shape
        dp = DynamicPath(root_pos, entry.side, entry.key_path)
        dynamic_paths.add(dp)
        kinds[dp] = entry.kind

    return TraceTemplate(interface_id=interface_id, base_trace=base,
                         dynamic_paths=dynamic_paths, placeholder_kinds=kinds)


@dataclass(frozen=True)
class EntryRequest:
    """A replayable entry request: the request line plus its payload."""

    line: str
    payload: dict


class SequentialIdSource:
    """Deterministic fresh-id generator; distinct from every recorded value."""

    def __init__(self, prefix: str = "rp"):
        self.prefix = prefix
        self._n = 0

    def __call__(self) -> str:
        self._n += 1
        return f"{self.prefix}-{self._n:08d}"


@dataclass
class ReplayContext:
    now_us: int
    id_source: Callable


def instantiate(template: TraceTemplate, context: ReplayContext) -> EntryRequest:
    """Materialize the entry request for one replayed call.

    fresh_id paths get new unique values, timestamp paths get the context's
    current virtual time. All other payload content is byte-identical to the
    base trace.
    """
    root = template.base_trace.root_span()
    root_pos = next(i for i, s in enumerate(template.base_trace.spans)
                    if s.span_id == template.base_trace.root)
    payload = dict(root.request_payload)
    for dp in sorted(template.dynamic_paths, key=DynamicPath.as_tuple):
        if dp.span_position != root_pos or dp.side != REQ:
            continue
        kind = template.placeholder_kinds.get(dp)
        if kind == KIND_FRESH_ID:
            payload[dp.key_path] = context.id_source()
        elif kind == KIND_TIMESTAMP:
            payload[dp.key_path] = str(context.now_us)
        else:
            raise TemplatingError(f"unknown placeholder kind {kind!r} for {dp}")
    return EntryRequest(line=root.operation_name, payload=payload)


def template_to_record(template: TraceTemplate) -> dict:
    return {
        "interface_id": template.interface_id,
        "base_trace": trace_to_record(template.base_trace),
        "dynamic_paths": sorted(dp.as_tuple() for dp in template.dynamic_paths),
        "placeholder_kinds": {
            f"{dp.span_position}|{dp.side}|{dp.key_path}": kind
            for dp, kind in sorted(template.placeholder_kinds.items(),
                                   key=lambda kv: kv[0].as_tuple())
        },
    }


def template_from_record(rec: dict) -> TraceTemplate:
    paths = {DynamicPath(int(p), s, k) for p, s, k in rec["dynamic_paths"]}
    kinds = {}
    for key, kind in rec["placeholder_kinds"].items():
        pos, side, path = key.split("|", 2)
        kinds[DynamicPath(int(pos), side, path)] = kind
    return TraceTemplate(
        interface_id=rec["interface_id"],
        base_trace=trace_from_record(rec["base_trace"]),
        dynamic_paths=paths,
        placeholder_kinds=kinds,
    )


def save_templates(templates: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for template in templates:
            fh.write(dumps_canonical(template_to_record(template)))
            fh.write("\n")


def load_templates(path) -> list:
    templates = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                templates.append(template_from_record(json.loads(line)))
    return templates
