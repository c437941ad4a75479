import hashlib
import random
from importlib import resources

import pytest

from resilitest.campaign import plan_campaign
from resilitest.faults import faults_for_endpoint, parse_catalog
from resilitest.model import Endpoint, new_corpus
from resilitest.planner import (PlanConfig, dual_write_groups, parse_case_line,
                                plan_targets, plan_trace_targets,
                                producer_consumer_pairs, sample_services,
                                save_plan)

from conftest import make_span, make_trace, root_span


def _simple_trace():
    spans = [root_span("s0", "POST /svc/things/do", dur=10_000),
             make_span("s1", "s0", component="Database", framework="sqlclient",
                       method="update", start=10, dur=100),
             make_span("s2", "s0", component="Cache", framework="kvclient",
                       method="get", start=200, dur=50)]
    return make_trace("t0", spans)


def test_extract_endpoints_direct_mapping():
    got = [(t.span_position, t.endpoint) for t in plan_trace_targets(_simple_trace())]
    assert got == [(1, Endpoint("Database", "sqlclient", "update")),
                   (2, Endpoint("Cache", "kvclient", "get"))]


def test_extract_endpoints_root_only_trace():
    trace = make_trace("t0", [root_span("s0", "GET /a/b/c")])
    assert plan_trace_targets(trace) == []


def test_last_invocation_repeated_endpoint():
    db = dict(component="Database", framework="sqlclient", method="query")
    spans = [root_span("s0", "GET /x/y/z", dur=10_000),
             make_span("s1", "s0", start=1, dur=1, **db),
             make_span("s2", "s0", start=10, dur=1, component="Cache",
                       framework="kvclient", method="get"),
             make_span("s3", "s0", start=20, dur=1, **db)]
    trace = make_trace("t0", spans)
    targets = plan_trace_targets(trace)
    # brute force over occurrences
    expected = {}
    for pos, span in enumerate(trace.spans[1:], start=1):
        expected[span.endpoint] = pos
    assert {t.span_position for t in targets} == set(expected.values()) == {2, 3}
    assert all(t.rationale == "last_invocation" for t in targets)


def test_last_invocation_unique_endpoints_targets_every_span():
    trace = _simple_trace()
    targets = plan_trace_targets(trace)
    assert [t.span_position for t in targets] == [1, 2]


def test_last_invocation_five_repeats_single_target():
    db = dict(component="Database", framework="sqlclient", method="query")
    spans = [root_span("s0", "GET /x/y/z", dur=10_000)]
    for i in range(1, 6):
        spans.append(make_span(f"s{i}", "s0", start=i, dur=1, **db))
    targets = plan_trace_targets(make_trace("t0", spans))
    assert [t.span_position for t in targets] == [5]


def _address_flow_trace():
    # OrderService calls GeoService (validate address), then ShippingService
    # with the validated address it produced
    spans = [
        root_span("s0", "POST /order/checkout/go", service="order", dur=50_000),
        make_span("s1", "s0", service="order", component="HTTP",
                  framework="httpclient", method="post",
                  op="call geo", req={"addr": "12 main street"},
                  resp={"validated": "geo-77ab21cd"}, start=10, dur=100),
        make_span("s2", "s0", service="order", component="HTTP",
                  framework="httpclient", method="get",
                  op="call shipping", req={"dest": "geo-77ab21cd"},
                  resp={"quote": "q-55"}, start=200, dur=100),
    ]
    return make_trace("t0", spans)


def test_address_flow_producer_consumer_edge():
    assert producer_consumer_pairs(_address_flow_trace()) == {(1, 2)}


def test_disjoint_payloads_no_edges():
    assert producer_consumer_pairs(_simple_trace()) == set()


def test_chain_of_three_yields_two_edges():
    spans = [
        root_span("s0", "POST /svc/chain/run", service="svc", dur=50_000),
        make_span("s1", "s0", service="svc", component="HTTP",
                  framework="httpclient", method="post", op="a",
                  req={"seed": "root-input"}, resp={"out": "token-aaaa"},
                  start=1, dur=10),
        make_span("s2", "s0", service="svc", component="HTTP",
                  framework="httpclient", method="post", op="b",
                  req={"in": "token-aaaa"}, resp={"out": "token-bbbb"},
                  start=20, dur=10),
        make_span("s3", "s0", service="svc", component="HTTP",
                  framework="httpclient", method="post", op="c",
                  req={"in": "token-bbbb"}, resp={"done": "ok"},
                  start=40, dur=10),
    ]
    assert producer_consumer_pairs(make_trace("t0", spans)) == {(1, 2), (2, 3)}


def test_short_tokens_ignored():
    spans = [
        root_span("s0", "POST /svc/x/y", service="svc", dur=1000),
        make_span("s1", "s0", service="svc", component="HTTP",
                  framework="h", method="post", resp={"v": "ab"}, start=1, dur=1),
        make_span("s2", "s0", service="svc", component="HTTP",
                  framework="h", method="post", req={"v": "ab"}, start=3, dur=1),
    ]
    assert producer_consumer_pairs(make_trace("t0", spans)) == set()


def _price_dual_write_trace():
    # ProductService: UPDATE in the Database and DELETE in the Cache, same id
    spans = [
        root_span("s0", "POST /product/update/price", service="product", dur=50_000),
        make_span("s1", "s0", service="product", component="Database",
                  framework="sqlclient", method="update",
                  req={"key": "prod-9912", "val": "29.99"}, start=1, dur=10),
        make_span("s2", "s0", service="product", component="Cache",
                  framework="kvclient", method="delete",
                  req={"key": "prod-9912"}, start=20, dur=10),
    ]
    return make_trace("t0", spans)


def test_update_then_cache_delete_marks_cache_secondary():
    # the last position of a group is its secondary write
    assert dual_write_groups(_price_dual_write_trace()) == {(1, 2)}


def test_dual_write_nothing_shared():
    spans = [
        root_span("s0", "POST /svc/w/w", service="svc", dur=1000),
        make_span("s1", "s0", service="svc", component="Database",
                  framework="d", method="update", req={"key": "aaaa1111"},
                  start=1, dur=1),
        make_span("s2", "s0", service="svc", component="Cache",
                  framework="c", method="delete", req={"key": "bbbb2222"},
                  start=3, dur=1),
    ]
    assert dual_write_groups(make_trace("t0", spans)) == set()


def test_dual_write_db_plus_mq_secondary_is_later_write():
    spans = [
        root_span("s0", "POST /svc/orders/save", service="svc", dur=1000),
        make_span("s1", "s0", service="svc", component="Database",
                  framework="d", method="insert", req={"key": "order-778"},
                  start=1, dur=1),
        make_span("s2", "s0", service="svc", component="MQ",
                  framework="kafka", method="publish", req={"oid": "order-778"},
                  start=3, dur=1),
    ]
    # the later write, the MQ publish, is the secondary
    assert [group[-1] for group in dual_write_groups(make_trace("t0", spans))] == [2]


def test_same_component_writes_do_not_group():
    spans = [
        root_span("s0", "POST /svc/a/b", service="svc", dur=1000),
        make_span("s1", "s0", service="svc", component="Database",
                  framework="d", method="insert", req={"key": "tok-1234"},
                  start=1, dur=1),
        make_span("s2", "s0", service="svc", component="Database",
                  framework="d", method="update", req={"key": "tok-1234"},
                  start=3, dur=1),
    ]
    assert dual_write_groups(make_trace("t0", spans)) == set()


def test_plan_keeps_producer_drops_consumer(catalog):
    trace = _address_flow_trace()
    corpus = new_corpus([trace], 0, "00")
    cases = plan_targets([trace], corpus, catalog, PlanConfig(seed=1))
    positions = {c.target.span_position for c in cases}
    assert 1 in positions and 2 not in positions
    producer_cases = [c for c in cases if c.target.span_position == 1]
    assert all(c.target.rationale == "producer" for c in producer_cases)


def test_plan_keeps_only_secondary_write(catalog):
    trace = _price_dual_write_trace()
    corpus = new_corpus([trace], 0, "00")
    cases = plan_targets([trace], corpus, catalog, PlanConfig(seed=1))
    positions = {c.target.span_position for c in cases}
    assert 2 in positions and 1 not in positions
    assert all(c.target.rationale == "dual_write_secondary"
               for c in cases if c.target.span_position == 2)


def _svc_span(i, component, method, req=None, resp=None):
    return make_span(f"s{i}", "s0", service="svc", component=component,
                     framework="f", method=method, op=f"op{i}", req=req,
                     resp=resp, start=i * 10, dur=5)


@pytest.mark.parametrize("spans, expected", [
    # s1/s2 share token A, s2/s3 token B: s2 is a non-secondary of the later group
    ([_svc_span(1, "Database", "update", req={"k": "tokn-AAAA"}),
      _svc_span(2, "Cache", "set", req={"k": "tokn-AAAA", "v": "tokn-BBBB"}),
      _svc_span(3, "MQ", "publish", req={"v": "tokn-BBBB"})],
     [(3, "dual_write_secondary")]),
    # s2 is the secondary of s1/s2 and produces what s3 consumes
    ([_svc_span(1, "Database", "update", req={"k": "tokn-AAAA"}),
      _svc_span(2, "Cache", "set", req={"k": "tokn-AAAA"}, resp={"out": "tokn-CCCC"}),
      _svc_span(3, "HTTP", "post", req={"in": "tokn-CCCC"})],
     [(2, "producer")]),
    # chain s1 -> s2 -> s3: s2 produces too, but it is a consumer
    ([_svc_span(1, "HTTP", "post", resp={"out": "tokn-AAAA"}),
      _svc_span(2, "HTTP", "get", req={"in": "tokn-AAAA"}, resp={"out": "tokn-BBBB"}),
      _svc_span(3, "HTTP", "put", req={"in": "tokn-BBBB"})],
     [(1, "producer")]),
], ids=["overlapping-dual-writes", "secondary-that-produces", "producer-chain"])
def test_rule_precedence_pruning_then_producer_then_secondary(spans, expected):
    trace = make_trace("t0", [root_span("s0", "POST /svc/a/b", service="svc"), *spans])
    assert [(t.span_position, t.rationale) for t in plan_trace_targets(trace)] == expected


def test_sample_services_deterministic_and_bounded():
    spans = {f"svc{i}": make_span(f"s1", "s0", service=f"svc{i}",
                                  component="Database", framework="d",
                                  method="q", start=1, dur=1)
             for i in range(10)}
    traces = []
    for i, (svc, span) in enumerate(sorted(spans.items())):
        traces.append(make_trace(f"t{i}", [root_span("s0", f"GET /x/y/{i}",
                                                     service=svc, dur=100), span]))
    corpus = new_corpus(traces, 0, "00")
    endpoint = Endpoint("Database", "d", "q")
    first = sample_services(corpus, endpoint, 3, seed=5)
    second = sample_services(corpus, endpoint, 3, seed=5)
    assert first == second
    assert len(first) == 3
    assert sample_services(corpus, endpoint, 3, seed=6) != first or True  # may coincide
    single = new_corpus(traces[:1], 0, "00")
    assert sample_services(single, endpoint, 3, seed=5) == {"svc0"}
    assert sample_services(corpus, Endpoint("MQ", "none", "x"), 3, seed=5) == set()


def test_sample_services_matches_full_corpus_scan(ref_corpus):
    """The corpus's endpoint index gives what a scan of every trace gives."""
    endpoints = {s.endpoint for t in ref_corpus.traces for s in t.spans
                 if s.span_id != t.root}
    sampled = 0
    for endpoint in sorted(endpoints, key=Endpoint.triple):
        users = sorted({s.service for t in ref_corpus.traces for s in t.spans
                        if s.endpoint == endpoint and s.span_id != t.root})
        rng_seed = f"7:{endpoint.triple()}"
        for n in (1, 3, 50):
            expected = (set(users) if len(users) <= n
                        else set(random.Random(rng_seed).sample(users, n)))
            assert sample_services(ref_corpus, endpoint, n, seed=7) == expected
            sampled += len(users) > n
    assert sampled > 0  # some endpoints have more users than n


def test_default_n_services_is_three():
    assert PlanConfig().n_services == 3


def _random_recorded_trace(rng, trace_id):
    services = ["alpha", "beta"]
    components = [("Database", "d", ["select", "update", "insert"]),
                  ("Cache", "c", ["get", "set", "delete"]),
                  ("MQ", "m", ["send", "publish"]),
                  ("HTTP", "h", ["get", "post"])]
    tokens = ["tokn-%d" % i for i in range(4)] + ["xy", "zz"]
    spans = [root_span("s0", f"POST /svc/path/{trace_id}",
                       service=rng.choice(services), dur=100_000)]
    for i in range(1, rng.randint(2, 7)):
        component, framework, methods = rng.choice(components)
        req = {f"k{j}": rng.choice(tokens) for j in range(rng.randint(0, 2))}
        resp = {f"r{j}": rng.choice(tokens) for j in range(rng.randint(0, 2))}
        spans.append(make_span(f"s{i}", "s0", service=rng.choice(services),
                               component=component, framework=framework,
                               method=rng.choice(methods), req=req, resp=resp,
                               start=i * 10, dur=5))
    return make_trace(trace_id, spans)


def _oracle_plan(selected, corpus, catalog, config):
    """Independent exhaustive oracle: enumerate all (span, fault) pairs, then
    apply each pruning rule as a separate filter."""
    out = []
    for trace in selected:
        pairs = []
        for pos, span in enumerate(trace.spans):
            if span.span_id == trace.root:
                continue
            for fault in faults_for_endpoint(catalog, span.endpoint):
                pairs.append((pos, span, fault))

        # rule 1: last invocation per endpoint
        last = {}
        for pos, span in [(p, s) for p, s, _f in pairs]:
            last[span.endpoint] = max(last.get(span.endpoint, -1), pos)
        pairs = [(p, s, f) for p, s, f in pairs if last[s.endpoint] == p]
        # rule 2: consumers covered by a producer edge
        consumers = {j for _i, j in producer_consumer_pairs(trace)}
        pairs = [(p, s, f) for p, s, f in pairs if p not in consumers]
        # rule 3: only secondary writes of dual-write groups
        dropped = set()
        for group in dual_write_groups(trace):
            dropped |= set(group[:-1])
        pairs = [(p, s, f) for p, s, f in pairs if p not in dropped]
        # rule 4: cross-service sampling
        pairs = [(p, s, f) for p, s, f in pairs
                 if s.service in sample_services(corpus, s.endpoint,
                                                 config.n_services, config.seed)]
        for pos, span, fault in pairs:
            out.append((trace.trace_id, pos, fault.fault_id))
    return out


def test_plan_matches_exhaustive_oracle_on_random_traces(catalog):
    rng = random.Random(99)
    for round_no in range(30):
        traces = [_random_recorded_trace(rng, f"t{round_no}_{i}")
                  for i in range(rng.randint(1, 6))]
        corpus = new_corpus(traces, 0, "00")
        config = PlanConfig(n_services=2, seed=round_no)
        cases = plan_targets(traces, corpus, catalog, config)
        got = [(c.target.trace_id, c.target.span_position, c.fault_id)
               for c in cases]
        assert got == _oracle_plan(traces, corpus, catalog, config)


def test_plan_soundness_no_duplicate_cases(catalog):
    rng = random.Random(123)
    traces = [_random_recorded_trace(rng, f"t{i}") for i in range(6)]
    corpus = new_corpus(traces, 0, "00")
    cases = plan_targets(traces, corpus, catalog, PlanConfig(seed=3))
    keys = [(c.target.trace_id, c.target.span_position, c.fault_id) for c in cases]
    assert len(keys) == len(set(keys))
    assert len({c.case_id for c in cases}) == len(cases)
    by_id = {t.trace_id: t for t in traces}
    for case in cases:
        span = by_id[case.target.trace_id].spans[case.target.span_position]
        assert span.endpoint == case.target.endpoint


def test_plan_deterministic_under_seed(catalog):
    rng = random.Random(5)
    traces = [_random_recorded_trace(rng, f"t{i}") for i in range(4)]
    corpus = new_corpus(traces, 0, "00")
    a = plan_targets(traces, corpus, catalog, PlanConfig(seed=42))
    b = plan_targets(traces, corpus, catalog, PlanConfig(seed=42))
    assert a == b


def test_plan_file_round_trip(tmp_path, catalog):
    trace = _price_dual_write_trace()
    corpus = new_corpus([trace], 0, "00")
    cases = plan_targets([trace], corpus, catalog, PlanConfig(seed=1))
    assert cases
    path = tmp_path / "plan.txt"
    save_plan(cases, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [parse_case_line(line, f"plan line {i}")
            for i, line in enumerate(lines, start=1)] == cases


def test_coverage_preserved_on_reference_corpus(ref_corpus, ref_analysis, catalog):
    """Pruning removes redundancy, never whole endpoint types (designed into
    the reference corpus)."""
    traces = {t.trace_id: t for t in ref_corpus.traces}
    selected = [traces[s.trace_id] for s in ref_analysis.ranked]
    config = PlanConfig(n_services=3, seed=7)
    cases = plan_targets(selected, ref_corpus, catalog, config)
    planned_endpoints = {c.target.endpoint for c in cases}

    sampled_endpoints = set()
    for trace in selected:
        # the last invocation of each endpoint, before rules 2 and 3
        last = {s.endpoint: s for s in trace.spans if s.span_id != trace.root}
        for span in last.values():
            sampled = sample_services(ref_corpus, span.endpoint,
                                      config.n_services, config.seed)
            if span.service in sampled:
                sampled_endpoints.add(span.endpoint)
    assert planned_endpoints == sampled_endpoints


def test_plan_targets_of_no_selection_is_no_case(catalog):
    assert plan_targets([], new_corpus([_simple_trace()], 0, "00"), catalog) == []


def test_interfaces_without_a_case_to_run_are_passed_over(ref_analysis):
    """Interfaces that yield no case are passed over: the MQ-only catalog
    gives most ranked interfaces nothing. So are interfaces whose every case
    passed, and the next one with a case takes their place."""
    text = resources.files("resilitest.assets").joinpath("default_faults.txt").read_text("utf-8")
    mq_only = parse_catalog("\n".join(line for line in text.splitlines() if " MQ:" in line))
    config = PlanConfig(n_services=3, seed=7)
    plain = plan_campaign(ref_analysis.ranked, ref_analysis.corpus, mq_only, 5, config)
    assert len(plain[0]) == 5 and len(plain[1]) == 7
    first = plain[0][0]
    first_cases = {case.case_id for case in plain[1]
                   if case.target.trace_id == first.trace_id}
    selected, cases = plan_campaign(ref_analysis.ranked, ref_analysis.corpus, mq_only, 5,
                                    config, passed=first_cases)
    assert selected[:4] == plain[0][1:] and first not in selected and len(selected) == 5
    assert not first_cases & {case.case_id for case in cases}


# SHA-256 of plan.txt on the reference analysis at PlanConfig(3, 7); a change
# that alters plans on purpose updates them and says why
PLAN_SHA256 = {
    5: "78d005022aac349e0ddf904e17b6dca4c5fdab51839ce619533e014e6bbaf07d",
    20: "0fd0914af7b44e4086588f378f3256bdc09675d05f755f06c06530fabb81a67d",
    40: "50c2b9ad8aea99890672fd000feba324ee0b80308189c462c8d9aeb8d9e7e193",
    "all": "2d5fba3ff757b3619ee2dfa02ef6289503f3f42990ea19f3038fcb968cf07813",
}


@pytest.mark.parametrize("k", list(PLAN_SHA256))
def test_reference_plan_file_is_pinned(tmp_path, ref_analysis, catalog, k):
    _selected, cases = plan_campaign(ref_analysis.ranked, ref_analysis.corpus, catalog,
                                     k, PlanConfig(n_services=3, seed=7))
    path = tmp_path / "plan.txt"
    save_plan(cases, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PLAN_SHA256[k]
