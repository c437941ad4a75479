"""Span/trace data model, the line-delimited corpus file format and its index.

A trace is the causally-ordered tree of spans produced by one entry request.
Payloads are flattened key-path -> scalar-string maps (nested documents use
"." separators), which keeps token comparison path-addressable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

CORPUS_FORMAT = "resilitest-corpus"
CORPUS_VERSION = "v1"

STATUS_OK = "ok"


def span_status(exc: str) -> str:
    """The status a span records for failure code `exc` ("" for success)."""
    return f"error:{exc}" if exc else STATUS_OK


class RequestLineError(ValueError):
    pass


def parse_request_line(line: str) -> tuple:
    """Split an entry request line into (method, path tokens).

    Tokens are the "/"-separated path segments; empty segments are preserved
    ("PUT /a//b" -> (PUT, [a, "", b])), the bare root path has none.
    """
    if not line or not line.strip():
        raise RequestLineError("empty request line")
    parts = line.split(" ")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise RequestLineError(f"malformed request line {line!r}: expected 'METHOD /path'")
    method, path = parts
    if not path.startswith("/"):
        raise RequestLineError(f"malformed request line {line!r}: path must start with '/'")
    return method, path.split("/")[1:] if path != "/" else []


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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Trace:
    trace_id: str
    spans: tuple
    root: str

    def root_span(self) -> Span:
        for span in self.spans:
            if span.span_id == self.root:
                return span
        raise KeyError(f"trace {self.trace_id}: root span {self.root!r} missing")

    @property
    def span_count(self) -> int:
        return len(self.spans)

    @property
    def diversity(self) -> int:
        """Distinct services plus distinct (component, framework) pairs."""
        services = {s.service for s in self.spans}
        components = {(s.endpoint.component, s.endpoint.framework) for s in self.spans}
        return len(services) + len(components)


@dataclass(frozen=True)
class CorpusMeta:
    seed: int
    topology_digest: str
    window_start_us: int = 0
    window_end_us: int = 0


@dataclass
class Corpus:
    """The traces a stage holds and the meta of the file or recording they
    come from."""

    traces: list = field(default_factory=list)
    meta: CorpusMeta = field(default_factory=lambda: CorpusMeta(0, "0"))

    @cached_property
    def endpoint_users(self) -> dict:
        """index_endpoint_users of `traces`, built on first use, so `traces`
        must not change after; a stage that holds only some of a file's
        traces sets it to the index of the whole file instead."""
        return index_endpoint_users(self.traces)


def index_endpoint_users(traces: Iterable[Trace]) -> dict:
    """Endpoint -> sorted tuple of the distinct services invoking it from a
    non-root span of `traces`, an iterable read once."""
    users = {}
    for trace in traces:
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


def validate_trace(trace: Trace) -> Optional[Violation]:
    """The first broken Span/Trace invariant of `trace`, rules and spans taken
    in order, or None if it is valid; total and pure: never raises."""
    by_id = {}
    for span in trace.spans:
        if span.span_id in by_id:
            return Violation(span.span_id, "unique-id", "duplicate span_id")
        by_id[span.span_id] = span

    roots = [s for s in trace.spans if s.parent_id is None]
    if len(roots) > 1:
        return Violation(roots[1].span_id, "multiple-roots", "more than one span lacks parent_id")
    if not roots:
        return Violation(trace.root, "missing-root", "no span lacks parent_id")
    if roots[0].span_id != trace.root:
        return Violation(trace.root, "root-mismatch",
                         f"declared root {trace.root!r} is not the parentless span")

    for span in trace.spans:
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if span.parent_id is not None and parent is None:
            return Violation(span.span_id, "dangling-parent",
                             f"parent {span.parent_id!r} not in trace")
        if span.duration_us < 0:
            return Violation(span.span_id, "negative-duration", f"duration {span.duration_us}")
        if parent is not None and (span.start_us < parent.start_us
                                   or span.end_us > parent.end_us):
            return Violation(
                span.span_id, "containment",
                f"[{span.start_us}, {span.end_us}] outside parent [{parent.start_us}, {parent.end_us}]")

    # Ordering: a valid topological order of the parent relation, ties (spans
    # unrelated in the ancestor partial order) broken by start_time.
    spans = trace.spans
    positions = {s.span_id: i for i, s in enumerate(spans)}
    for i, span in enumerate(spans):
        if span.parent_id is not None and positions[span.parent_id] > i:
            return Violation(span.span_id, "topo-order", "span precedes its parent")
    # Now an ancestor is listed before its descendants and starts no later, so
    # a span starting before an earlier-listed one is unrelated to it: report
    # the pair with the smallest earlier index, then the smallest later one.
    first, earliest = None, math.inf  # earliest: the least start after position i
    for i in range(len(spans) - 1, -1, -1):
        if spans[i].start_us > earliest:
            first = i
        earliest = min(earliest, spans[i].start_us)
    if first is None:
        return None
    earlier = spans[first]
    later = next(s for s in spans[first + 1:] if s.start_us < earlier.start_us)
    return Violation(
        later.span_id, "start-order",
        f"starts at {later.start_us} before unrelated earlier span {earlier.span_id} at {earlier.start_us}")


class CorpusParseError(ValueError):
    """A corpus line that does not decode or breaks a trace rule."""


class CorpusVersionError(ValueError):
    pass


def _payload(rec: dict, key: str) -> dict:
    payload = rec[key] if key in rec else {}
    if payload.__class__ is not dict:
        raise TypeError(f"{key} payload is {type(payload).__name__}, not an object")
    return payload


def trace_from_record(rec: dict, endpoints: dict) -> Trace:
    """The Trace of one corpus record; `endpoints` maps each
    (component, framework, method) seen so far to its one Endpoint."""
    spans = []
    for s in rec["spans"]:
        span_id, parent = s["id"], s.get("parent")
        if span_id.__class__ is not str:
            raise TypeError(f"span id {span_id!r} is not a string")
        if parent is not None and parent.__class__ is not str:
            raise TypeError(f"span parent {parent!r} is neither a string nor null")
        ep = s["endpoint"]
        key = (ep["component"], ep["framework"], ep["method"])
        endpoint = endpoints.get(key)
        if endpoint is None:
            endpoint = endpoints[key] = Endpoint(*key)
        start_us, dur_us = s["start_us"], s["dur_us"]
        if start_us.__class__ is not int or dur_us.__class__ is not int:
            raise TypeError(f"span start_us {start_us!r} and dur_us {dur_us!r} must be integers")
        spans.append(Span(span_id, parent, s["service"], endpoint, s["op"],
                          _payload(s, "req"), _payload(s, "resp"), s["status"],
                          start_us, dur_us))
    trace_id, root = rec["trace_id"], rec["root"]
    if trace_id.__class__ is not str or root.__class__ is not str:
        raise TypeError(f"trace_id {trace_id!r} and root {root!r} must be strings")
    return Trace(trace_id, tuple(spans), root)


def _decode_line(where: str, line, endpoints: dict) -> Trace:
    """The valid Trace of corpus line `line`, text or UTF-8 bytes; else
    CorpusParseError at `where`."""
    try:
        trace = trace_from_record(json.loads(line), endpoints)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusParseError(f"{where}: malformed trace record: {exc}") from exc
    violation = validate_trace(trace)
    if violation is not None:
        raise CorpusParseError(f"{where}: trace {trace.trace_id!r}: {violation}")
    return trace


def dumps_canonical(obj) -> str:
    """Canonical JSON used for every serialized artifact (byte-deterministic)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_lines(path, lines: Iterable[str]) -> int:
    """Write each string of `lines`, an iterable read once, as one line of
    `path` and return how many were written: the artifact writer. The lines go
    to `<path>.tmp`, which `os.replace` moves over `path` at the end; on an
    exception the temp file is removed and `path` keeps its earlier bytes."""
    tmp = f"{os.fspath(path)}.tmp"
    count = 0
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for count, line in enumerate(lines, start=1):
                fh.write(line)
                fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only left behind by an exception
            os.remove(tmp)
    return count


def read_lines(path, what: str, digest=None, positions: Optional[array] = None):
    """(where, line) for each non-blank line of `path`, stripped, in file
    order: the artifact line reader. `where`, `<what> <path> line <n>`,
    prefixes each error about the line, such as one that is not UTF-8. The
    file's bytes are fed to `digest`, a hashlib object, and each line's
    number and byte offset appended to `positions`, if they are given."""
    offset = 0
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if digest is not None:
                digest.update(raw)
            where = f"{what} {path} line {line_no}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise ValueError(f"{where}: not UTF-8") from None
            if line:
                if positions is not None:
                    positions.extend((line_no, offset))
                yield where, line
            offset += len(raw)


# The kinds of a record field: (name in messages, test). No kind but BOOLEAN
# holds a bool, although JSON's true and false decode to a subclass of int.
STRING = ("a string", lambda v: v.__class__ is str)
OBJECT = ("an object", lambda v: v.__class__ is dict)
INTEGER = ("an integer", lambda v: v.__class__ is int)
COUNT = ("an integer >= 0", lambda v: v.__class__ is int and v >= 0)
NUMBER = ("a finite number",
          lambda v: v.__class__ is int or (v.__class__ is float and math.isfinite(v)))
TRIPLE = ("a list of three strings",
          lambda v: v.__class__ is list and len(v) == 3 and all(s.__class__ is str for s in v))
NAMES = ("a sorted list of distinct strings",
         lambda v: (v.__class__ is list and all(s.__class__ is str for s in v)
                    and v == sorted(set(v))))
BOOLEAN = ("true or false", lambda v: v.__class__ is bool)
POSITIVE = ("an integer >= 1", lambda v: v.__class__ is int and v >= 1)
POSITIVE_OR_NULL = ("an integer >= 1 or null", lambda v: v is None or POSITIVE[1](v))
OBJECTS = ("a list of objects", lambda v: v.__class__ is list and all(o.__class__ is dict for o in v))
PAIRS = ("a list of [name, source] string pairs", lambda v: v.__class__ is list and all(
    p.__class__ is list and len(p) == 2 and all(s.__class__ is str for s in p) for p in v))


def one_of(*values) -> tuple:
    """The kind of a field holding one of `values`, of the same type as it."""
    return (f"one of {', '.join(map(repr, values))}",
            lambda v: any(v.__class__ is w.__class__ and v == w for w in values))


def check_kind(key: str, value, kind: tuple) -> None:
    """Raise ValueError unless `value`, the value of field `key`, is of `kind`."""
    if not kind[1](value):
        raise ValueError(f"{key} must be {kind[0]}, got {value!r}")


def check_fields(rec, fields: dict, optional: dict = {}, closed: bool = False):
    """`rec`, once it is a JSON object holding each key of `fields` (and any
    key of `optional`) with a value of the kind the key maps to, and, if
    `closed`, no other key; else ValueError names the first field at fault."""
    if rec.__class__ is not dict:
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    for key, kind in fields.items():
        if key not in rec:
            raise ValueError(f"missing {key}")
        check_kind(key, rec[key], kind)
    for key, kind in optional.items():
        if key in rec:
            check_kind(key, rec[key], kind)
    unknown = closed and sorted(rec.keys() - fields.keys() - optional.keys())
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)}")
    return rec


def read_records(path, what: str, fields: dict, closed: bool = False,
                 unique: tuple = ()):
    """(where, record) for each non-blank line of `path`, decoded as JSON and
    checked by check_fields; no two records may hold the same value of a key
    in `unique`. A line that breaks a rule raises ValueError at its `where`."""
    seen = {key: set() for key in unique}
    for where, line in read_lines(path, what):
        try:
            record = check_fields(json.loads(line), fields, closed=closed)
            for key, values in seen.items():
                if record[key] in values:
                    raise ValueError(f"repeated {key} {record[key]!r}")
                values.add(record[key])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        yield where, record


def save_corpus(records: Iterable[dict], path, meta: CorpusMeta) -> int:
    """Write `records`, corpus trace records in an iterable read once, under
    a header with `meta`'s seed and topology digest; `path` is replaced as
    write_lines does. Returns the number of traces written."""
    header = (f"{CORPUS_FORMAT} {CORPUS_VERSION} seed={meta.seed} "
              f"topology={meta.topology_digest}")
    return write_lines(path, itertools.chain([header], map(dumps_canonical, records))) - 1


def _read_header(lines, first: str) -> tuple:
    """Seed and topology digest of the header, the line of `lines` at `first`."""
    where, header = next(lines, (first, None))
    if header is None:
        raise CorpusParseError(f"{first}: empty file, missing header")
    header = header if where == first else ""  # line 1 is blank
    parts = header.split()
    if len(parts) != 4 or parts[0] != CORPUS_FORMAT:
        raise CorpusParseError(f"{first}: not a {CORPUS_FORMAT} header: {header!r}")
    if parts[1] != CORPUS_VERSION:
        raise CorpusVersionError(f"{first}: incompatible corpus version {parts[1]!r}, "
                                 f"this reader supports {CORPUS_VERSION}")
    try:
        return int(parts[2].split("=", 1)[1]), parts[3].split("=", 1)[1]
    except (IndexError, ValueError) as exc:
        raise CorpusParseError(f"{first}: malformed header fields: {exc}") from exc


class CorpusReader:
    """One validating pass over a corpus file: the only corpus decoder.

    Iterating yields each trace in file order as soon as its line is decoded
    and validated, and holds nothing of it after. A line that does not decode,
    repeats a trace ID or breaks a validate_trace rule raises
    CorpusParseError naming the file and line, after the traces before it were
    yielded; a bad header raises CorpusParseError or CorpusVersionError.
    `meta` is set once the pass is complete. The pass feeds the file's bytes
    to `sha256`, a hashlib object, and appends the line number and byte
    offset of each trace yielded to `positions`, interleaved, in file order.
    """

    def __init__(self, path):
        self.path = path
        self.meta: Optional[CorpusMeta] = None
        self.sha256 = hashlib.sha256()
        self.positions = array("q")

    def __iter__(self):
        lines = read_lines(self.path, "corpus", self.sha256, self.positions)
        seed, digest = _read_header(lines, f"corpus {self.path} line 1")
        del self.positions[:]  # the header's
        endpoints = {}
        seen_ids = set()
        start = end = None
        for where, line in lines:
            trace = _decode_line(where, line, endpoints)
            if trace.trace_id in seen_ids:
                raise CorpusParseError(f"{where}: duplicate trace_id {trace.trace_id!r}")
            seen_ids.add(trace.trace_id)
            # a valid trace's spans all lie inside its root: the root is
            # its whole share of the recording window
            root = trace.root_span()
            if start is None or root.start_us < start:
                start = root.start_us
            if end is None or root.end_us > end:
                end = root.end_us
            yield trace
        if start is None:
            start = end = 0
        self.meta = CorpusMeta(seed, digest, start, end)


def load_corpus(path) -> Corpus:
    """Every trace of a corpus file, validated; raises as CorpusReader does."""
    reader = CorpusReader(path)
    traces = list(reader)
    return Corpus(traces=traces, meta=reader.meta)


# The fields of a corpus index's records: its head, then an endpoint's
# users or a trace's position
INDEX_HEAD = {"corpus_sha256": STRING, "traces": COUNT}
INDEX_USERS = {"endpoint": TRIPLE, "users": NAMES}
INDEX_TRACE = {"trace_id": STRING, "line": COUNT, "offset": COUNT}


def save_corpus_index(reader: CorpusReader, users: dict, located: dict, path) -> None:
    """Write the index `plan` reads instead of the corpus file `reader` read:
    a head with the file's SHA-256 and trace count, each endpoint's `users`
    in endpoint order, and the line and byte offset of each trace ID of
    `located`, in its order, which maps it to its index in the file."""
    at = reader.positions
    head = {"corpus_sha256": reader.sha256.hexdigest(), "traces": len(at) // 2}
    users = ({"endpoint": [e.component, e.framework, e.method], "users": list(names)}
             for e, names in sorted(users.items()))
    traces = ({"trace_id": trace_id, "line": at[2 * i], "offset": at[2 * i + 1]}
              for trace_id, i in located.items())
    write_lines(path, map(dumps_canonical, itertools.chain([head], users, traces)))


def read_trace_at(fh, path, line: int, offset: int, trace_id: str, where: str,
                  endpoints: dict) -> Trace:
    """The valid trace `trace_id` at byte `offset`, line `line`, of corpus
    `path`, open as binary file `fh`; `where` prefixes each error, such as
    one for another trace found there."""
    fh.seek(offset)
    trace = _decode_line(f"{where}: trace {trace_id!r} at corpus {path} line {line}",
                         fh.readline(), endpoints)
    if trace.trace_id != trace_id:
        raise ValueError(f"{where}: offset {offset} of corpus {path} "
                         f"holds trace {trace.trace_id!r}, not {trace_id!r}")
    return trace


def load_indexed_traces(path, index, trace_ids: list, named_by: str) -> Corpus:
    """The traces of corpus file `path` that `trace_ids` lists, in its order,
    read at the offsets in corpus index `index`, with its endpoint_users. The
    corpus must have the SHA-256 the index holds, and the index must locate
    each trace; `named_by`, where `trace_ids` come from, names them."""
    if not os.path.isfile(index):
        raise ValueError(f"corpus-index {index}: no such file; re-run analyze on "
                         f"corpus {path} to write it")
    head, users, located = None, {}, {}
    for where, rec in read_records(index, "corpus-index", {}):
        fields = (INDEX_HEAD if head is None else
                  INDEX_TRACE if "trace_id" in rec else INDEX_USERS)
        try:
            check_fields(rec, fields, closed=True)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if head is None:
            head = rec
        elif fields is INDEX_USERS:
            users[Endpoint(*rec["endpoint"])] = tuple(rec["users"])
        else:
            located[rec["trace_id"]] = where, rec
    if head is None:
        raise ValueError(f"corpus-index {index}: empty file")
    with open(path, "rb") as fh:
        sha256 = hashlib.sha256()
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha256.update(block)
        if sha256.hexdigest() != head["corpus_sha256"]:
            raise ValueError(f"corpus-index {index}: indexes a corpus with SHA-256 "
                             f"{head['corpus_sha256']}, but corpus {path} has "
                             f"{sha256.hexdigest()}; re-run analyze on it")
        endpoints = {}
        traces = []
        for trace_id in trace_ids:
            if trace_id not in located:
                raise ValueError(f"{named_by}: trace {trace_id!r} is not in "
                                 f"corpus-index {index}")
            where, rec = located[trace_id]
            traces.append(read_trace_at(fh, path, rec["line"], rec["offset"], trace_id,
                                        where, endpoints))
    corpus = Corpus(traces)
    corpus.endpoint_users = users
    return corpus


def new_corpus(traces: list, seed: int, topology_digest: str) -> Corpus:
    start, end = compute_window(traces)
    return Corpus(traces=list(traces),
                  meta=CorpusMeta(seed, topology_digest, start, end))
