import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilitest.aggregation import save_cluster_report
from resilitest.campaign import analyze_corpus
from resilitest.executor import CampaignResult, save_report
from resilitest.faults import default_catalog
from resilitest.model import (Corpus, CorpusParseError, CorpusReader,
                              CorpusVersionError, Endpoint, Trace, Violation,
                              dumps_canonical, load_corpus, new_corpus,
                              save_corpus, validate_trace)
from resilitest.planner import PlanConfig, plan_targets, save_plan
from resilitest.scheduler import Run, RunPlan, save_run_plan
from resilitest.selection import save_selection_report
from resilitest.sim.engine import record_corpus
from resilitest.sim.topology import save_topology
from resilitest.sim.workload import save_workload
from resilitest.templating import ManualVariableRegistry, save_templates

from conftest import (make_mini_topology, make_mini_workload, make_span, make_trace,
                      trace_to_record)
from reference_system import save_registry


def test_minimal_valid_trace_has_empty_report():
    trace = make_trace("t0", [make_span("s0", None)])
    assert validate_trace(trace) is None


def test_two_parentless_spans_reports_multiple_roots():
    trace = make_trace("t0", [make_span("s0", None), make_span("s1", None)])
    assert validate_trace(trace) == Violation("s1", "multiple-roots",
                                              "more than one span lacks parent_id")


def test_child_interval_exceeding_parent_reports_containment():
    parent = make_span("s0", None, start=0, dur=100)
    child = make_span("s1", "s0", start=50, dur=100)  # ends at 150 > 100
    violation = validate_trace(make_trace("t0", [parent, child]))
    assert (violation.rule, violation.span_id) == ("containment", "s1")


def test_dangling_parent_reported():
    spans = [make_span("s0", None, dur=1000),
             make_span("s1", "missing", start=1, dur=2)]
    assert validate_trace(make_trace("t0", spans)) == Violation(
        "s1", "dangling-parent", "parent 'missing' not in trace")


def test_duplicate_ids_reported():
    spans = [make_span("s0", None, dur=1000),
             make_span("s1", "s0", start=1, dur=2),
             make_span("s1", "s0", start=1, dur=2)]
    assert validate_trace(make_trace("t0", spans)) == Violation(
        "s1", "unique-id", "duplicate span_id")


def test_child_before_parent_reports_topo_order():
    child = make_span("s1", "s0", start=10, dur=5)
    parent = make_span("s0", None, start=0, dur=100)
    trace = make_trace("t0", [parent, child])
    # reversed list: child listed before parent
    from resilitest.model import Trace
    bad = Trace(trace_id="t0", spans=(child, parent), root="s0")
    assert validate_trace(bad) == Violation("s1", "topo-order", "span precedes its parent")


def test_unrelated_spans_out_of_start_order_reported():
    root = make_span("s0", None, start=0, dur=1000)
    late = make_span("s1", "s0", start=500, dur=10)
    early = make_span("s2", "s0", start=100, dur=10)
    from resilitest.model import Trace
    bad = Trace(trace_id="t0", spans=(root, late, early), root="s0")
    assert validate_trace(bad) == Violation(
        "s2", "start-order", "starts at 100 before unrelated earlier span s1 at 500")


def test_validate_is_pure():
    trace = make_trace("t0", [make_span("s0", None), make_span("s1", None)])
    first = validate_trace(trace)
    second = validate_trace(trace)
    assert first == second


def _is_ancestor_oracle(by_id, ancestor, span):
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


def _validate_trace_oracle(trace):
    """Every violation of `trace` in validate_trace's order, listed as
    validate_trace did before it stopped at the first and before ancestor
    sets: an _is_ancestor walk for every pair of spans."""
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
    positions = {s.span_id: i for i, s in enumerate(trace.spans)}
    for span in trace.spans:
        if span.parent_id is not None and span.parent_id in positions:
            if positions[span.parent_id] > positions[span.span_id]:
                violations.append(Violation(span.span_id, "topo-order", "span precedes its parent"))
    for i, earlier in enumerate(trace.spans):
        for later in trace.spans[i + 1:]:
            if (_is_ancestor_oracle(by_id, earlier.span_id, later)
                    or _is_ancestor_oracle(by_id, later.span_id, earlier)):
                continue
            if earlier.start_us > later.start_us:
                violations.append(Violation(
                    later.span_id, "start-order",
                    f"starts at {later.start_us} before unrelated earlier span {earlier.span_id} at {earlier.start_us}"))
    return violations


# few IDs, so that duplicates, cycles, dangling parents and several roots
# all come up; parents drawn from a wider set than the span IDs dangle
_SPAN_IDS = st.sampled_from(["a", "b", "c", "d", "e"])
_SPANS = st.lists(
    st.builds(make_span, _SPAN_IDS,
              st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d", "e", "x"])),
              start=st.integers(0, 30), dur=st.integers(-5, 40)),
    min_size=1, max_size=8)


@given(spans=_SPANS, root=st.sampled_from(["a", "b", "c", "x"]))
@settings(max_examples=400, deadline=None)
def test_validate_trace_matches_the_pairwise_walk_oracle(spans, root):
    trace = Trace(trace_id="t0", spans=tuple(spans), root=root)
    assert validate_trace(trace) == next(iter(_validate_trace_oracle(trace)), None)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_validate_trace_matches_the_oracle_on_shuffled_valid_trees(seed):
    """A valid tree listed in a random order that keeps each parent before
    its children breaks start-order only, if anything."""
    rng = random.Random(seed)
    spans = [make_span("s0", None, start=0, dur=100)]
    for i in range(1, rng.randint(2, 12)):
        parent = rng.choice(spans)
        start = rng.randint(parent.start_us, parent.end_us)
        spans.append(make_span(f"s{i}", parent.span_id, start=start,
                               dur=rng.randint(0, parent.end_us - start)))
    order, ready = [], [spans[0]]
    while ready:
        span = ready.pop(rng.randrange(len(ready)))
        order.append(span)
        ready.extend(s for s in spans if s.parent_id == span.span_id)
    trace = Trace(trace_id="t0", spans=tuple(order), root="s0")
    expected = next(iter(_validate_trace_oracle(trace)), None)
    assert expected is None or expected.rule == "start-order"
    assert validate_trace(trace) == expected


def _random_trace(rng, trace_id):
    n = rng.randint(1, 6)
    spans = [make_span("s0", None, start=0, dur=10_000,
                       req={"a": str(rng.randint(0, 99))},
                       resp={"b": "x" * rng.randint(1, 5)})]
    for i in range(1, n):
        parent = spans[rng.randrange(len(spans))]
        start = parent.start_us + rng.randint(0, 100)
        spans.append(make_span(
            f"s{i}", parent.span_id, start=start,
            dur=min(500, parent.end_us - start),
            component=rng.choice(["Database", "Cache", "MQ"]),
            framework=rng.choice(["jdbc", "jedis", "kafka"]),
            method=rng.choice(["select", "get", "send"]),
            req={"k": f"key-{rng.randint(0, 9)}"}, resp={"rows": "1"}))
    spans.sort(key=lambda s: (s.start_us, s.span_id != "s0"))
    # keep parent-before-child after the sort
    placed = {}
    ordered = []
    pending = list(spans)
    while pending:
        for span in list(pending):
            if span.parent_id is None or span.parent_id in placed:
                placed[span.span_id] = True
                ordered.append(span)
                pending.remove(span)
    return make_trace(trace_id, ordered)


def test_corpus_round_trip_empty(tmp_path):
    corpus = new_corpus([], seed=3, topology_digest="abcd")
    path = tmp_path / "c.txt"
    save_corpus(map(trace_to_record, corpus.traces), path, corpus.meta)
    assert load_corpus(path) == corpus


def test_corpus_round_trip_generated_1000(tmp_path):
    rng = random.Random(5)
    traces = [_random_trace(rng, f"t{i:04d}") for i in range(1000)]
    corpus = new_corpus(traces, seed=17, topology_digest="ff00")
    path = tmp_path / "c.txt"
    save_corpus(map(trace_to_record, corpus.traces), path, corpus.meta)
    loaded = load_corpus(path)
    assert loaded == corpus
    assert loaded.meta.window_start_us == corpus.meta.window_start_us


def test_truncated_file_parse_error_names_final_record(tmp_path):
    rng = random.Random(6)
    corpus = new_corpus([_random_trace(rng, f"t{i}") for i in range(5)],
                        seed=1, topology_digest="aa")
    path = tmp_path / "c.txt"
    save_corpus(map(trace_to_record, corpus.traces), path, corpus.meta)
    data = path.read_bytes()
    path.write_bytes(data[:-20])  # chop the tail of the last record
    with pytest.raises(CorpusParseError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"corpus {path} line 6: ")  # header + 5 records


def test_version_mismatch_is_explicit(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("resilitest-corpus v9 seed=1 topology=00\n")
    with pytest.raises(CorpusVersionError):
        load_corpus(path)


def test_not_a_corpus_header(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("something else entirely\n")
    with pytest.raises(CorpusParseError):
        load_corpus(path)


def test_duplicate_trace_ids_rejected(tmp_path):
    rng = random.Random(7)
    trace = _random_trace(rng, "dup")
    corpus = Corpus(traces=[trace, trace])
    path = tmp_path / "c.txt"
    save_corpus(map(trace_to_record, corpus.traces), path, corpus.meta)
    with pytest.raises(CorpusParseError):
        load_corpus(path)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(seed, tmp_path_factory):
    rng = random.Random(seed)
    traces = [_random_trace(rng, f"t{i}") for i in range(rng.randint(0, 8))]
    corpus = new_corpus(traces, seed=seed, topology_digest="55aa")
    path = tmp_path_factory.mktemp("prop") / "c.txt"
    save_corpus(map(trace_to_record, corpus.traces), path, corpus.meta)
    assert load_corpus(path) == corpus


def test_endpoint_is_hashable_and_orderable():
    a = Endpoint("Database", "jdbc", "select")
    b = Endpoint("Database", "jdbc", "update")
    assert a == Endpoint("Database", "jdbc", "select")
    assert len({a, b}) == 2
    assert sorted([b, a])[0] == a


def test_endpoint_hash_is_the_hash_of_its_fields():
    a = Endpoint("Cache", "jedis", "get")
    same = Endpoint("Cache", "jedis", "get")
    assert a is not same and a == same and hash(a) == hash(same)
    assert hash(a) == hash(("Cache", "jedis", "get"))
    index = {a: 1, Endpoint("Cache", "jedis", "set"): 2}
    assert index[same] == 1 and same in {a}
    index[same] = 3
    assert len(index) == 2 and index[a] == 3
    assert repr(a) == "Endpoint(component='Cache', framework='jedis', method='get')"
    assert a < Endpoint("Cache", "jedis", "set")


def test_reader_yields_earlier_traces_before_a_malformed_line(tmp_path):
    rng = random.Random(8)
    first = _random_trace(rng, "t0")
    path = tmp_path / "c.txt"
    save_corpus(map(trace_to_record, [first, _random_trace(rng, "t1")]), path,
                new_corpus([], 1, "aa").meta)
    header, line2, _line3 = path.read_text().splitlines()
    path.write_text(f"{header}\n{line2}\n{{broken\n")
    traces = iter(CorpusReader(path))
    assert next(traces) == first
    with pytest.raises(CorpusParseError) as err:
        next(traces)
    assert str(err.value).startswith(f"corpus {path} line 3: malformed trace record")


@pytest.mark.parametrize("payload", [[["k", "v"]], "kv", None])
def test_non_object_payload_is_rejected(tmp_path, payload):
    rec = trace_to_record(make_trace("t0", [make_span("s0", None)]))
    rec["spans"][0]["req"] = payload
    path = tmp_path / "c.txt"
    path.write_text(f"resilitest-corpus v1 seed=1 topology=00\n{dumps_canonical(rec)}\n")
    with pytest.raises(CorpusParseError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"corpus {path} line 2: malformed trace record: req payload")


def test_decoder_shares_one_endpoint_per_triple(tmp_path):
    rng = random.Random(9)
    corpus = new_corpus([_random_trace(rng, f"t{i}") for i in range(20)], 1, "aa")
    path = tmp_path / "c.txt"
    save_corpus(map(trace_to_record, corpus.traces), path, corpus.meta)
    endpoints = {}
    for trace in load_corpus(path).traces:
        for span in trace.spans:
            assert endpoints.setdefault(span.endpoint, span.endpoint) is span.endpoint


def test_save_failure_midway_keeps_the_earlier_file(tmp_path):
    rng = random.Random(10)
    earlier = new_corpus([_random_trace(rng, f"t{i}") for i in range(3)], 1, "aa")
    path = tmp_path / "c.txt"
    save_corpus(map(trace_to_record, earlier.traces), path, earlier.meta)
    before = path.read_bytes()

    def traces_then_failure():
        yield _random_trace(rng, "n0")
        yield _random_trace(rng, "n1")
        raise RuntimeError("simulator failed")

    with pytest.raises(RuntimeError, match="simulator failed"):
        save_corpus(map(trace_to_record, traces_then_failure()), path, earlier.meta)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.txt"]


class _Unwritable(list):
    """A record whose serialisation fails: reading any attribute, iterating
    over it or encoding it as JSON (which lists it first) raises."""

    def __getattr__(self, name):
        raise RuntimeError("unwritable record")

    def __iter__(self):
        raise RuntimeError("unwritable record")


@pytest.fixture(scope="module")
def mini_artifacts():
    """Real records of every artifact kind, from a recorded mini corpus."""
    spec = make_mini_topology()
    corpus = record_corpus(spec, make_mini_workload(spec), seed=5)
    analysis = analyze_corpus(corpus)
    selected = [next(t for t in corpus.traces if t.trace_id == s.trace_id)
                for s in analysis.ranked]
    cases = plan_targets(selected, corpus, default_catalog(), PlanConfig(3, 5))
    return spec, corpus, analysis, cases


def _writers(spec, corpus, analysis, cases, bad):
    """name -> a call of that artifact writer whose second record is `bad`."""
    registry = ManualVariableRegistry()
    registry.register("if0", "sig", "fresh_id")
    registry.entries["if1"] = bad
    first_run = {"type": "test_run", "case_id": "c0", "trace_id": "t0", "host_trace_id": "t0",
                 "interface_id": "if0", "service": "svc",
                 "endpoint": "Database:jdbc:select", "fault_id": "f0", "rationale": "r",
                 "verdict": "PASS"}
    return {
        "save_corpus": lambda p: save_corpus(map(trace_to_record, [corpus.traces[0], bad]),
                                             p, corpus.meta),
        "save_cluster_report": lambda p: save_cluster_report([analysis.clusters[0], bad], p),
        "save_selection_report": lambda p: save_selection_report(
            [analysis.ranked[0], bad], corpus, p),
        "save_templates": lambda p: save_templates(
            [next(iter(analysis.templates.values())), bad], p),
        "save_registry": lambda p: save_registry(registry, p),
        "save_plan": lambda p: save_plan([cases[0], bad], p),
        "save_run_plan": lambda p: save_run_plan(
            RunPlan([Run(cases[0].target.trace_id, [cases[0], bad])]), p),
        "save_workload": lambda p: save_workload([make_mini_workload(spec)[0], bad], p),
        "save_topology": lambda p: save_topology(
            replace(spec, services=(spec.services[0], bad)), p),
        "save_report": lambda p: save_report(CampaignResult([first_run, bad], 1, 1), p),
    }


@pytest.mark.parametrize("writer", [
    "save_corpus", "save_cluster_report", "save_selection_report", "save_templates",
    "save_registry", "save_plan", "save_run_plan", "save_workload",
    "save_topology", "save_report"])
def test_writer_failing_midway_keeps_the_earlier_file(mini_artifacts, tmp_path, writer):
    path = tmp_path / "artifact"
    path.write_bytes(b"earlier bytes\n")
    with pytest.raises(RuntimeError, match="unwritable record"):
        _writers(*mini_artifacts, _Unwritable())[writer](path)
    assert path.read_bytes() == b"earlier bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
