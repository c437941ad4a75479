"""Span/trace data model and the line-delimited corpus file format.

A trace is the causally-ordered tree of spans produced by one entry request.
Payloads are flattened key-path -> scalar-string maps (nested documents use
"." separators), which keeps token comparison path-addressable.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

CORPUS_FORMAT = "resilitest-corpus"
CORPUS_VERSION = "v1"

STATUS_OK = "ok"


def error_status(code: str) -> str:
    """Build the error-status string for a failure code."""
    return f"error:{code}"


def is_ok(status: str) -> bool:
    return status == STATUS_OK


def status_code(status: str) -> str:
    """Extract the failure code from an error status ("" for ok)."""
    if status == STATUS_OK:
        return ""
    if status.startswith("error:"):
        return status[len("error:"):]
    return status


@dataclass(frozen=True, order=True)
class Endpoint:
    """(Component, Framework, Method) tuple identifying a fault-injection target class."""

    component: str  # one of COMPONENTS
    framework: str
    method: str

    def __post_init__(self):
        # the generated hash's value, computed once: endpoints key hot dicts
        object.__setattr__(self, "_hash",
                           hash((self.component, self.framework, self.method)))

    def __hash__(self) -> int:
        return self._hash

    def triple(self) -> str:
        return f"{self.component}:{self.framework}:{self.method}"


COMPONENTS = ("Database", "Cache", "MQ", "RPC", "HTTP")

# Endpoint methods that change state: dual-write grouping and loss accounting.
WRITE_METHODS = frozenset({"update", "insert", "delete", "send", "set", "publish"})


@dataclass(frozen=True)
class Span:
    span_id: str
    parent_id: Optional[str]
    service: str
    endpoint: Endpoint
    operation_name: str
    request_payload: dict
    response_payload: dict
    status: str
    start_us: int
    duration_us: int

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us


@dataclass(frozen=True)
class Trace:
    trace_id: str
    spans: tuple
    root: str

    def root_span(self) -> Span:
        for span in self.spans:
            if span.span_id == self.root:
                return span
        raise KeyError(f"trace {self.trace_id}: root span {self.root!r} missing")


@dataclass(frozen=True)
class CorpusMeta:
    seed: int
    topology_digest: str
    window_start_us: int = 0
    window_end_us: int = 0


@dataclass
class Corpus:
    traces: list = field(default_factory=list)
    meta: CorpusMeta = field(default_factory=lambda: CorpusMeta(0, "0"))

    @cached_property
    def endpoint_users(self) -> dict:
        """Endpoint -> sorted tuple of the distinct services invoking it from
        a non-root span. Built on first use, so `traces` must not change after."""
        users = {}
        for trace in self.traces:
            for span in trace.spans:
                if span.span_id != trace.root:
                    users.setdefault(span.endpoint, set()).add(span.service)
        return {endpoint: tuple(sorted(services))
                for endpoint, services in users.items()}


def compute_window(traces: Iterable[Trace]) -> tuple:
    """Recording window (min start, max end) over all spans; (0, 0) when empty."""
    start = None
    end = None
    for trace in traces:
        for span in trace.spans:
            if start is None or span.start_us < start:
                start = span.start_us
            if end is None or span.end_us > end:
                end = span.end_us
    if start is None:
        return (0, 0)
    return (start, end)


@dataclass(frozen=True)
class Violation:
    span_id: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] span {self.span_id}: {self.detail}"


def _is_ancestor(by_id: dict, ancestor: str, span: Span) -> bool:
    seen = set()
    cur = span
    while cur.parent_id is not None and cur.parent_id not in seen:
        seen.add(cur.parent_id)
        if cur.parent_id == ancestor:
            return True
        nxt = by_id.get(cur.parent_id)
        if nxt is None:
            return False
        cur = nxt
    return False


def validate_trace(trace: Trace) -> list:
    """Check all Span/Trace invariants; total and pure.

    Returns a list of Violations (empty iff the trace is valid). Violations
    are data, not errors: malformed traces never raise.
    """
    violations = []
    by_id = {}
    for span in trace.spans:
        if span.span_id in by_id:
            violations.append(Violation(span.span_id, "unique-id", "duplicate span_id"))
        else:
            by_id[span.span_id] = span

    roots = [s for s in trace.spans if s.parent_id is None]
    if len(roots) > 1:
        for span in roots[1:]:
            violations.append(Violation(span.span_id, "multiple-roots", "more than one span lacks parent_id"))
    if not roots:
        violations.append(Violation(trace.root, "missing-root", "no span lacks parent_id"))
    elif roots[0].span_id != trace.root or trace.root not in by_id:
        violations.append(Violation(trace.root, "root-mismatch",
                                    f"declared root {trace.root!r} is not the parentless span"))

    for span in trace.spans:
        if span.parent_id is not None and span.parent_id not in by_id:
            violations.append(Violation(span.span_id, "dangling-parent",
                                        f"parent {span.parent_id!r} not in trace"))
        if span.duration_us < 0:
            violations.append(Violation(span.span_id, "negative-duration", f"duration {span.duration_us}"))
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is not None:
            if span.start_us < parent.start_us or span.end_us > parent.end_us:
                violations.append(Violation(
                    span.span_id, "containment",
                    f"[{span.start_us}, {span.end_us}] outside parent [{parent.start_us}, {parent.end_us}]"))

    # Ordering: a valid topological order of the parent relation, ties (spans
    # unrelated in the ancestor partial order) broken by start_time.
    positions = {s.span_id: i for i, s in enumerate(trace.spans)}
    for span in trace.spans:
        if span.parent_id is not None and span.parent_id in positions:
            if positions[span.parent_id] > positions[span.span_id]:
                violations.append(Violation(span.span_id, "topo-order", "span precedes its parent"))
    for i, earlier in enumerate(trace.spans):
        for later in trace.spans[i + 1:]:
            if _is_ancestor(by_id, earlier.span_id, later) or _is_ancestor(by_id, later.span_id, earlier):
                continue
            if earlier.start_us > later.start_us:
                violations.append(Violation(
                    later.span_id, "start-order",
                    f"starts at {later.start_us} before unrelated earlier span {earlier.span_id} at {earlier.start_us}"))
    return violations


class CorpusError(Exception):
    """Base class for corpus file problems."""


class CorpusParseError(CorpusError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CorpusVersionError(CorpusError):
    pass


def span_to_record(span: Span) -> dict:
    return {
        "id": span.span_id,
        "parent": span.parent_id,
        "service": span.service,
        "endpoint": {
            "component": span.endpoint.component,
            "framework": span.endpoint.framework,
            "method": span.endpoint.method,
        },
        "op": span.operation_name,
        "req": span.request_payload,
        "resp": span.response_payload,
        "status": span.status,
        "start_us": span.start_us,
        "dur_us": span.duration_us,
    }


def span_from_record(rec: dict) -> Span:
    ep = rec["endpoint"]
    return Span(
        span_id=rec["id"],
        parent_id=rec.get("parent"),
        service=rec["service"],
        endpoint=Endpoint(ep["component"], ep["framework"], ep["method"]),
        operation_name=rec["op"],
        request_payload=dict(rec.get("req", {})),
        response_payload=dict(rec.get("resp", {})),
        status=rec["status"],
        start_us=int(rec["start_us"]),
        duration_us=int(rec["dur_us"]),
    )


def trace_to_record(trace: Trace) -> dict:
    return {
        "trace_id": trace.trace_id,
        "root": trace.root,
        "spans": [span_to_record(s) for s in trace.spans],
    }


def trace_from_record(rec: dict) -> Trace:
    return Trace(
        trace_id=rec["trace_id"],
        spans=tuple(span_from_record(s) for s in rec["spans"]),
        root=rec["root"],
    )


def dumps_canonical(obj) -> str:
    """Canonical JSON used for every serialized artifact (byte-deterministic)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@contextmanager
def atomic_writer(path):
    """Text handle whose contents replace `path` only once fully written.

    Writes go to `<path>.tmp`, which `os.replace` moves over `path` when the
    block exits normally; on an exception the temp file is removed and `path`
    keeps its earlier bytes.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only left behind by an exception
            os.remove(tmp)


def save_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{CORPUS_FORMAT} {CORPUS_VERSION} seed={corpus.meta.seed} "
                 f"topology={corpus.meta.topology_digest}\n")
        for trace in corpus.traces:
            fh.write(dumps_canonical(trace_to_record(trace)))
            fh.write("\n")


def load_corpus(path) -> Corpus:
    """Parse a corpus file; raises CorpusParseError / CorpusVersionError,
    also for a trace that breaks a validate_trace rule."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise CorpusParseError(1, "empty file, missing header")
        parts = header.split()
        if len(parts) != 4 or parts[0] != CORPUS_FORMAT:
            raise CorpusParseError(1, f"not a {CORPUS_FORMAT} header: {header.strip()!r}")
        if parts[1] != CORPUS_VERSION:
            raise CorpusVersionError(
                f"incompatible corpus version {parts[1]!r}, this reader supports {CORPUS_VERSION}")
        try:
            seed = int(parts[2].split("=", 1)[1])
            digest = parts[3].split("=", 1)[1]
        except (IndexError, ValueError) as exc:
            raise CorpusParseError(1, f"malformed header fields: {exc}") from exc

        traces = []
        seen_ids = set()
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                trace = trace_from_record(rec)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise CorpusParseError(line_no, f"malformed trace record: {exc}") from exc
            if trace.trace_id in seen_ids:
                raise CorpusParseError(line_no, f"duplicate trace_id {trace.trace_id!r}")
            violations = validate_trace(trace)
            if violations:
                raise CorpusParseError(line_no, f"trace {trace.trace_id!r}: {violations[0]}")
            seen_ids.add(trace.trace_id)
            traces.append(trace)

    start, end = compute_window(traces)
    meta = CorpusMeta(seed=seed, topology_digest=digest,
                      window_start_us=start, window_end_us=end)
    return Corpus(traces=traces, meta=meta)


def new_corpus(traces: list, seed: int, topology_digest: str) -> Corpus:
    start, end = compute_window(traces)
    return Corpus(traces=list(traces),
                  meta=CorpusMeta(seed, topology_digest, start, end))


__all__ = [
    "Endpoint", "Span", "Trace", "Corpus", "CorpusMeta", "Violation",
    "COMPONENTS", "WRITE_METHODS", "STATUS_OK", "error_status", "is_ok", "status_code",
    "validate_trace", "save_corpus", "load_corpus", "new_corpus",
    "compute_window", "dumps_canonical", "trace_to_record", "trace_from_record",
    "CorpusError", "CorpusParseError", "CorpusVersionError",
]
