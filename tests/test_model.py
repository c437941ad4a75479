import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilitest.model import (Corpus, CorpusParseError, CorpusVersionError,
                              Endpoint, load_corpus, new_corpus, save_corpus,
                              validate_trace)

from conftest import make_span, make_trace


def test_minimal_valid_trace_has_empty_report():
    trace = make_trace("t0", [make_span("s0", None)])
    assert validate_trace(trace) == []


def test_two_parentless_spans_reports_multiple_roots():
    trace = make_trace("t0", [make_span("s0", None), make_span("s1", None)])
    rules = {v.rule for v in validate_trace(trace)}
    assert "multiple-roots" in rules


def test_child_interval_exceeding_parent_reports_containment():
    parent = make_span("s0", None, start=0, dur=100)
    child = make_span("s1", "s0", start=50, dur=100)  # ends at 150 > 100
    report = validate_trace(make_trace("t0", [parent, child]))
    assert any(v.rule == "containment" and v.span_id == "s1" for v in report)


def test_dangling_parent_and_duplicate_ids_reported():
    spans = [make_span("s0", None, dur=1000),
             make_span("s1", "missing", start=1, dur=2),
             make_span("s1", "s0", start=1, dur=2)]
    rules = {v.rule for v in validate_trace(make_trace("t0", spans))}
    assert "dangling-parent" in rules
    assert "unique-id" in rules


def test_child_before_parent_reports_topo_order():
    child = make_span("s1", "s0", start=10, dur=5)
    parent = make_span("s0", None, start=0, dur=100)
    trace = make_trace("t0", [parent, child])
    # reversed list: child listed before parent
    from resilitest.model import Trace
    bad = Trace(trace_id="t0", spans=(child, parent), root="s0")
    assert any(v.rule == "topo-order" for v in validate_trace(bad))


def test_unrelated_spans_out_of_start_order_reported():
    root = make_span("s0", None, start=0, dur=1000)
    late = make_span("s1", "s0", start=500, dur=10)
    early = make_span("s2", "s0", start=100, dur=10)
    from resilitest.model import Trace
    bad = Trace(trace_id="t0", spans=(root, late, early), root="s0")
    assert any(v.rule == "start-order" for v in validate_trace(bad))


def test_validate_is_pure():
    trace = make_trace("t0", [make_span("s0", None), make_span("s1", None)])
    first = validate_trace(trace)
    second = validate_trace(trace)
    assert first == second


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
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_corpus_round_trip_generated_1000(tmp_path):
    rng = random.Random(5)
    traces = [_random_trace(rng, f"t{i:04d}") for i in range(1000)]
    corpus = new_corpus(traces, seed=17, topology_digest="ff00")
    path = tmp_path / "c.txt"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded == corpus
    assert loaded.meta.window_start_us == corpus.meta.window_start_us


def test_truncated_file_parse_error_names_final_record(tmp_path):
    rng = random.Random(6)
    corpus = new_corpus([_random_trace(rng, f"t{i}") for i in range(5)],
                        seed=1, topology_digest="aa")
    path = tmp_path / "c.txt"
    save_corpus(corpus, path)
    data = path.read_bytes()
    path.write_bytes(data[:-20])  # chop the tail of the last record
    with pytest.raises(CorpusParseError) as err:
        load_corpus(path)
    assert err.value.line_no == 6  # header + 5 records


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
    save_corpus(corpus, path)
    with pytest.raises(CorpusParseError):
        load_corpus(path)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_round_trip_property(seed, tmp_path_factory):
    rng = random.Random(seed)
    traces = [_random_trace(rng, f"t{i}") for i in range(rng.randint(0, 8))]
    corpus = new_corpus(traces, seed=seed, topology_digest="55aa")
    path = tmp_path_factory.mktemp("prop") / "c.txt"
    save_corpus(corpus, path)
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
