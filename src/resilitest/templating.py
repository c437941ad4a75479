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

from .model import Span, dumps_canonical, read_lines, read_records, write_lines
from .selection import representative_key

REQ = "req"

KIND_FRESH_ID = "fresh_id"
KIND_TIMESTAMP = "timestamp"
KINDS = (KIND_FRESH_ID, KIND_TIMESTAMP)


class TemplatingError(ValueError):
    pass


class InsufficientEvidenceError(TemplatingError):
    """Fewer than two spans: inter-span variability cannot be assessed."""


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


@dataclass(frozen=True)
class RegistryEntry:
    interface_id: str
    key_path: str
    kind: str


@dataclass
class ManualVariableRegistry:
    """Operator-maintained list of variables invisible to the heuristic.

    Persisted one entry per line: `<interface_id> req <key-path> <kind> # note`.
    Only entry requests are replayed, so `req` is the only payload side.
    """

    entries: set = field(default_factory=set)
    provenance: dict = field(default_factory=dict)

    def register(self, interface_id: str, key_path: str, kind: str,
                 note: str = "") -> None:
        if kind not in KINDS:
            raise TemplatingError(f"invalid placeholder kind {kind!r}")
        if not key_path:
            raise TemplatingError("empty key-path")
        entry = RegistryEntry(interface_id, key_path, kind)
        self.entries.add(entry)
        if note:
            self.provenance[entry] = note

    def for_interface(self, interface_id: str) -> list:
        hits = [e for e in self.entries if e.interface_id == interface_id]
        return sorted(hits, key=lambda e: (e.key_path, e.kind))

    def save(self, path) -> None:
        suffixes = {e: f"  # {note}" for e, note in self.provenance.items() if note}
        write_lines(path, (f"{e.interface_id} {REQ} {e.key_path} {e.kind}{suffixes.get(e, '')}"
                           for e in sorted(self.entries,
                                           key=lambda e: (e.interface_id, e.key_path, e.kind))))

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
            try:
                reg.register(parts[0], parts[2], parts[3], note.strip())
            except TemplatingError as exc:
                raise TemplatingError(f"{where}: {exc}") from None
        return reg


def _scalar(value) -> bool:
    # a list or object payload value is never a dynamic variable
    return not isinstance(value, (list, dict))


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
    one that holds a list or object value in some span's request.
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
                   interface_id: str, window: tuple, scores: dict) -> TraceTemplate:
    """Build the replay template for one interface cluster.

    The base trace is the member with the highest complexity score in
    `scores` (0.0 when absent), ties to the lowest trace ID: the trace
    selection picks for the interface. Its root request is what replay
    sends. `window` is the corpus recording window that timestamp values are
    inferred against. Placeholders are the two-stage heuristic's paths over
    the members' root spans; registry entries for this interface override
    them, for the keys present in the base root request.
    """
    if not cluster_traces:
        raise TemplatingError("cannot build a template from zero traces")

    base = min(cluster_traces, key=lambda t: representative_key(
        scores.get(t.trace_id, 0.0), t.trace_id))
    placeholders = {}
    roots = [t.root_span() for t in cluster_traces]
    if _spans_comparable(roots):
        try:
            confirmed = confirm_dynamic_variables(roots)
        except InsufficientEvidenceError:
            confirmed = set()
        for path in confirmed:
            placeholders[path] = _infer_kind((s.request_payload[path] for s in roots), window)

    root = base.root_span()
    for entry in registry.for_interface(interface_id):
        if entry.key_path in root.request_payload:
            placeholders[entry.key_path] = entry.kind
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


TEMPLATE_FIELDS = ("interface_id", "line", "payload", "placeholders", "trace_id")


def save_templates(templates: list, path) -> None:
    write_lines(path, (dumps_canonical({
        "interface_id": t.interface_id, "trace_id": t.trace_id,
        "line": t.request.line, "payload": t.request.payload,
        "placeholders": t.placeholders}) for t in templates))


def _template_from_record(rec) -> TraceTemplate:
    if not isinstance(rec, dict) or sorted(rec) != list(TEMPLATE_FIELDS):
        got = ", ".join(sorted(rec)) if isinstance(rec, dict) else type(rec).__name__
        raise TemplatingError(f"expected an object with fields "
                              f"{', '.join(TEMPLATE_FIELDS)}; got {got}")
    bad = [k for k in ("interface_id", "trace_id", "line") if not isinstance(rec[k], str)]
    bad += [k for k in ("payload", "placeholders") if not isinstance(rec[k], dict)]
    if bad:
        raise TemplatingError(f"malformed {', '.join(bad)}")
    for key, kind in sorted(rec["placeholders"].items()):
        if kind not in KINDS:
            raise TemplatingError(f"unknown placeholder kind {kind!r} for {key!r}")
        if key not in rec["payload"]:
            raise TemplatingError(f"placeholder {key!r} is not a payload key")
    return TraceTemplate(interface_id=rec["interface_id"], trace_id=rec["trace_id"],
                         request=EntryRequest(rec["line"], rec["payload"]),
                         placeholders=rec["placeholders"])


def load_templates(path) -> list:
    """Templates of a templates.jsonl file, one record per line; a record
    that is not exactly what save_templates writes names the file and line."""
    templates = []
    for where, rec in read_records(path, "templates"):
        try:
            templates.append(_template_from_record(rec))
        except TemplatingError as exc:
            raise TemplatingError(f"{where}: {exc}") from None
    return templates
