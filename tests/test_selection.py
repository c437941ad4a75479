import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilitest.aggregation import InterfaceCluster, cluster_interfaces
from resilitest.campaign import resolve_k
from resilitest.model import new_corpus
from resilitest.selection import (ComplexityWeights, SelectionError,
                                  compute_norms, interface_score,
                                  score_corpus, select_top_k, trace_complexity)

from conftest import make_span, make_trace, root_span


def _trace_with(trace_id, n_spans, dur=10_000, services=1):
    spans = [root_span("s0", f"GET /svc/things/{trace_id}", dur=dur)]
    for i in range(1, n_spans):
        spans.append(make_span(f"s{i}", "s0", service=f"svc{i % services}",
                               start=i, dur=10))
    return make_trace(trace_id, spans)


def test_weights_must_sum_to_one():
    with pytest.raises(SelectionError):
        ComplexityWeights(0.5, 0.5, 0.5)
    with pytest.raises(SelectionError):
        ComplexityWeights(-0.2, 0.6, 0.6)
    ComplexityWeights(1.0, 0.0, 0.0)  # fine


def test_all_identical_traces_score_zero():
    traces = [_trace_with(f"t{i}", 3) for i in range(4)]
    corpus = new_corpus(traces, 0, "00")
    scores = score_corpus(corpus)
    assert set(scores.values()) == {0.0}


def test_span_count_weight_only_hand_computed():
    traces = [_trace_with("t2", 2), _trace_with("t5", 5), _trace_with("t8", 8)]
    corpus = new_corpus(traces, 0, "00")
    scores = score_corpus(corpus, ComplexityWeights(1.0, 0.0, 0.0))
    assert scores["t2"] == 0.0
    assert scores["t5"] == 0.5
    assert scores["t8"] == 1.0


@given(st.integers(min_value=2, max_value=20))
@settings(max_examples=30, deadline=None)
def test_adding_a_span_strictly_increases_score(n):
    smaller = _trace_with("a", n)
    bigger = _trace_with("b", n + 1)
    corpus = new_corpus([_trace_with("lo", 2), _trace_with("hi", 40)], 0, "00")
    weights = ComplexityWeights(0.6, 0.2, 0.2)
    norms = compute_norms(corpus)
    assert trace_complexity(bigger, weights, norms) > \
        trace_complexity(smaller, weights, norms)


def test_scores_lie_in_unit_interval(ref_corpus):
    scores = score_corpus(ref_corpus)
    assert all(0.0 <= s <= 1.0 for s in scores.values())


def test_affine_duration_rescaling_is_absorbed():
    rng = random.Random(3)
    traces = [_trace_with(f"t{i}", rng.randint(1, 6), dur=rng.randint(100, 9999))
              for i in range(20)]
    corpus = new_corpus(traces, 0, "00")
    scores = score_corpus(corpus)

    def rescale(trace):
        spans = [make_span(s.span_id, s.parent_id, service=s.service,
                           op=s.operation_name, start=s.start_us * 3,
                           dur=s.duration_us * 3, component=s.endpoint.component,
                           framework=s.endpoint.framework, method=s.endpoint.method)
                 for s in trace.spans]
        return make_trace(trace.trace_id, spans)

    rescaled_corpus = new_corpus([rescale(t) for t in traces], 0, "00")
    assert score_corpus(rescaled_corpus) == scores


def _cluster(cid, members):
    return InterfaceCluster(interface_id=cid, template_tokens=["x"],
                            member_trace_ids=members, http_method="GET")


def test_interface_score_single_member():
    assert interface_score(_cluster("c", ["t"]), {"t": 0.7}) == 0.7


def test_interface_score_mean_and_permutation_invariance():
    scores = {"a": 0.2, "b": 0.4, "c": 0.6}
    assert interface_score(_cluster("c", ["a", "b", "c"]), scores) == pytest.approx(0.4)
    assert interface_score(_cluster("c", ["c", "a", "b"]), scores) == \
        interface_score(_cluster("c", ["a", "b", "c"]), scores)


def test_top_k_basic():
    scores = {"ta": 0.9, "tb": 0.1}
    clusters = [_cluster("A", ["ta"]), _cluster("B", ["tb"])]
    out = select_top_k(clusters, scores)
    assert [(s.interface_id, s.trace_id) for s in out] == [("A", "ta"), ("B", "tb")]


def test_top_k_beyond_cluster_count_truncates():
    scores = {"ta": 0.9, "tb": 0.1}
    clusters = [_cluster("A", ["ta"]), _cluster("B", ["tb"])]
    assert resolve_k(150, len(select_top_k(clusters, scores))) == 2


def test_top_k_matches_sort_oracle_on_random_corpora():
    rng = random.Random(13)
    for _ in range(25):
        n_clusters = rng.randint(1, 50)
        scores = {}
        clusters = []
        for c in range(n_clusters):
            members = [f"t{c}_{m}" for m in range(rng.randint(1, 5))]
            for m in members:
                scores[m] = rng.random()
            clusters.append(_cluster(f"c{c:02d}", members))
        k = rng.randint(1, n_clusters + 3)
        got = select_top_k(clusters, scores)[:k]

        # independent oracle: sort then take k, same tie rules
        def aggregate(cluster):
            vals = [scores[t] for t in cluster.member_trace_ids]
            return sum(vals) / len(vals)

        ranked = sorted(clusters, key=lambda c: (-aggregate(c), c.interface_id))
        expected = []
        for cluster in ranked[:k]:
            best = min(cluster.member_trace_ids, key=lambda t: (-scores[t], t))
            expected.append((cluster.interface_id, best))
        assert [(s.interface_id, s.trace_id) for s in got] == expected


def test_selection_deterministic_across_runs(ref_corpus):
    clusters = cluster_interfaces(ref_corpus)
    scores = score_corpus(ref_corpus)
    first = select_top_k(clusters, scores)
    second = select_top_k(cluster_interfaces(ref_corpus), score_corpus(ref_corpus))
    assert first == second


def test_top_150_on_reference_corpus(ref_analysis):
    got = select_top_k(ref_analysis.clusters, ref_analysis.scores)[:150]
    assert len(got) == 150
    assert len({s.interface_id for s in got}) == 150
    assert len({s.trace_id for s in got}) == 150  # one representative each


def test_template_trace_is_the_selected_trace(ref_analysis):
    # templating builds on the trace ranking picks, so every planned host
    # trace has a template
    mismatched = [s.interface_id for s in ref_analysis.ranked
                  if ref_analysis.templates[s.interface_id].trace_id != s.trace_id]
    assert mismatched == []


def test_planted_deep_traces_concentrate_selection():
    rng = random.Random(21)
    traces = []
    # 5 deep interfaces (many hops), 15 shallow
    for i in range(5):
        traces += [_trace_with(f"deep{i}_{j}", 12, dur=50_000, services=4)
                   for j in range(3)]
    for i in range(15):
        traces += [_trace_with(f"flat{i}_{j}", 2, dur=1_000) for j in range(3)]
    corpus = new_corpus(traces, 0, "00")

    # one cluster per interface prefix
    clusters = []
    for i in range(5):
        clusters.append(_cluster(f"deep{i}", [f"deep{i}_{j}" for j in range(3)]))
    for i in range(15):
        clusters.append(_cluster(f"flat{i:02d}", [f"flat{i}_{j}" for j in range(3)]))
    scores = score_corpus(corpus)
    top = select_top_k(clusters, scores)[:5]
    assert {s.interface_id for s in top} == {f"deep{i}" for i in range(5)}
