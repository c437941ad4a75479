"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy artifacts (recorded corpus, campaigns, sweeps) are built once in
module-scoped fixtures that also record their wall-clock cost so the stated
runtime budgets are asserted against the real work.
"""

import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass, field

import pytest

from resilitest.campaign import (analyze_corpus, plan_campaign, replay_check,
                                 run_campaign)
from resilitest.executor import (EffectiveCriteria, FAIL_VERDICTS,
                                 OracleCriteria, PhaseConfig, PhaseMetrics,
                                 evaluate, run_batch, save_report)
from resilitest.faults import faults_for_endpoint
from resilitest.model import compute_window, dumps_canonical, new_corpus
from resilitest.planner import PlanConfig, plan_targets, sample_services
from resilitest.refassets import (build_reference_topology,
                                  build_reference_workload,
                                  build_signature_registry)
from resilitest.scheduler import History, Run, RunPlan, greedy_batch
from resilitest.sim.engine import record_corpus
from resilitest.templating import ManualVariableRegistry, build_template

from conftest import make_span, make_trace, root_span

SEED = 7
SECOND = 1_000_000
PHASES = PhaseConfig(12 * SECOND, 12 * SECOND, 12 * SECOND, 5)
# SHA-256 of the K=all report; a change that alters reports on purpose
# updates it and says why
CAMPAIGN_ALL_REPORT_SHA256 = \
    "2251de35f05a982114cba26ee33b59eb11965b73307fe05bedb63ed01ca9b47f"


def _ok(criterion, detail=""):
    print(f"[criterion {criterion}] PASS {detail}".rstrip())


@dataclass
class Timed:
    value: object
    seconds: float
    extras: dict = field(default_factory=dict)


def _bug_units(topology):
    units = {}
    for flag, svc_name, line, idx in topology.seeded_bugs():
        for svc in topology.services:
            if svc.name != svc_name:
                continue
            for iface in svc.interfaces:
                if iface.line == line:
                    units[(svc_name, iface.workflow[idx].endpoint())] = flag
    return units


def _detected_bugs(topology, test_runs):
    units = _bug_units(topology)
    hit = set()
    for tr in test_runs:
        if tr.verdict != "PASS" and (tr.service, tr.endpoint) in units:
            hit.add((tr.service, tr.endpoint))
    return {units[u] for u in hit}, hit


@pytest.fixture(scope="module")
def pipeline():
    """Recorded corpus + analysis with the signature registry applied."""
    t0 = time.monotonic()
    topology = build_reference_topology()
    workload = build_reference_workload(topology)
    corpus = record_corpus(topology, workload, seed=SEED)
    registry = build_signature_registry(topology)
    analysis = analyze_corpus(corpus, registry=registry)
    return Timed((topology, workload, corpus, registry, analysis),
                 time.monotonic() - t0)


@pytest.fixture(scope="module")
def campaign_all(pipeline, catalog, tmp_path_factory):
    topology, _workload, _corpus, _registry, analysis = pipeline.value
    t0 = time.monotonic()
    _selected, cases = plan_campaign(analysis.ranked, analysis.corpus, catalog,
                                     "all", PlanConfig(n_services=3, seed=SEED))
    result = run_campaign(topology, analysis, catalog, cases, PHASES,
                          OracleCriteria(), seed=SEED)
    seconds = time.monotonic() - t0
    path = tmp_path_factory.mktemp("reports") / "campaign_all.jsonl"
    save_report(result, path, config={"top_k": "all", "seed": SEED})
    return Timed(result, seconds, extras={"cases": cases, "report": path})


@pytest.fixture(scope="module")
def campaign_all_bugfree(catalog):
    t0 = time.monotonic()
    topology = build_reference_topology(bugs=False)
    workload = build_reference_workload(topology)
    corpus = record_corpus(topology, workload, seed=SEED)
    analysis = analyze_corpus(corpus, registry=build_signature_registry(
        build_reference_topology()))
    _selected, cases = plan_campaign(analysis.ranked, analysis.corpus, catalog,
                                     "all", PlanConfig(n_services=3, seed=SEED))
    result = run_campaign(topology, analysis, catalog, cases, PHASES,
                          OracleCriteria(), seed=SEED)
    return Timed(result, time.monotonic() - t0)


@pytest.fixture(scope="module")
def sweep(pipeline, catalog, tmp_path_factory):
    topology, _workload, _corpus, _registry, analysis = pipeline.value
    t0 = time.monotonic()
    out = {}
    reports = {}
    directory = tmp_path_factory.mktemp("sweep")
    for k in (5, 10, 20, 40):
        _sel, cases = plan_campaign(analysis.ranked, analysis.corpus, catalog,
                                    k, PlanConfig(n_services=3, seed=SEED))
        result = run_campaign(topology, analysis, catalog, cases, PHASES,
                              OracleCriteria(), seed=SEED)
        out[k] = (len(cases), result)
        reports[k] = directory / f"report_k{k}.jsonl"
        save_report(result, reports[k], config={"top_k": str(k), "seed": SEED})
    return Timed(out, time.monotonic() - t0, extras={"reports": reports})


def test_criterion_1_session_token_templating():
    t0 = time.monotonic()

    def span(sid, session):
        return root_span(sid, "POST /svc/sessions/open",
                         req={"session_id": session, "domain_id": "acme-cloud"},
                         resp={"session_id": session, "domain_id": "acme-cloud",
                               "status": "ok"})

    traces = [make_trace("t0", [span("s0", "f7k9q2")]),
              make_trace("t1", [span("s1", "r4m8p1")])]
    template = build_template(traces, ManualVariableRegistry(), interface_id="sessions",
                              window=compute_window(traces), scores={})
    parameterized = set(template.placeholders)
    elapsed = time.monotonic() - t0
    assert parameterized == {"session_id"}
    assert elapsed < 1.0
    _ok(1, f"(exactly session_id, {elapsed:.3f}s)")


def test_criterion_2_replayability(tmp_path):
    t0 = time.monotonic()
    topology = build_reference_topology()
    workload = build_reference_workload(topology)
    corpus = record_corpus(topology, workload, seed=SEED)
    assert len({c.interface_id for c in analyze_corpus(corpus).clusters}) >= 200

    bare = analyze_corpus(corpus)  # no manual registrations
    check = replay_check(topology, bare, seed=SEED)
    fraction = check.success_fraction
    assert fraction >= 0.98

    # the residual failures are exactly the seeded signature-token interfaces
    from resilitest.refassets import expected_interface_id
    signature_ids = {expected_interface_id(iface)
                     for _svc, iface in topology.interfaces()
                     if any(f.kind == "signature" for f in iface.fields)}
    failed_ids = {iid for iid, ok in check.interface_ok.items() if not ok}
    assert failed_ids == signature_ids

    registered = analyze_corpus(corpus, registry=build_signature_registry(topology))
    check_registered = replay_check(topology, registered, seed=SEED)
    elapsed = time.monotonic() - t0
    assert check_registered.success_fraction == 1.0
    assert elapsed < 60.0
    _ok(2, f"({fraction:.4f} unregistered, 1.0000 registered, {elapsed:.1f}s)")


def test_criterion_3_seeded_bug_detection(pipeline, campaign_all,
                                          campaign_all_bugfree):
    topology = pipeline.value[0]
    _flags, units = _detected_bugs(topology, campaign_all.value.test_runs)
    bug_count = len(units)
    assert bug_count >= 9, f"only {bug_count}/10 seeded bugs detected"

    bugfree = campaign_all_bugfree.value
    counts = bugfree.verdict_counts()
    false_fails = sum(counts[v] for v in FAIL_VERDICTS)
    assert false_fails == 0, f"{false_fails} false FAIL verdicts on bug-free variant"
    assert counts["STARTUP_FAILURE"] == 0

    elapsed = campaign_all.seconds + campaign_all_bugfree.seconds
    assert elapsed < 300.0
    _ok(3, f"({bug_count}/10 bugs, 0 false FAILs, {elapsed:.0f}s)")


def test_criterion_4_granular_oracle_differential(pipeline, catalog):
    topology, _workload, corpus, _registry, analysis = pipeline.value
    units = {unit: flag for unit, flag in _bug_units(topology).items()
             if flag == "fire_and_forget"}
    assert len(units) == 2
    traces = {t.trace_id: t for t in corpus.traces}
    templates = list(analysis.templates.values())
    checked = 0
    for (service, endpoint) in sorted(units, key=lambda u: u[0]):
        case = None
        for sel in analysis.ranked:
            trace = traces[sel.trace_id]
            for c in plan_targets([(sel.interface_id, trace)], corpus, catalog,
                                  PlanConfig(n_services=3, seed=SEED)):
                if (c.target.service, c.target.endpoint) == (service, endpoint) \
                        and c.fault_id == "mq-disconnect":
                    case = c
            if case:
                break
        assert case is not None, f"no planned case for {service}"
        plan = RunPlan(runs=[Run(trace_id=case.target.trace_id, cases=[case])])
        dual, = run_batch(plan, topology, templates, catalog, PHASES,
                          OracleCriteria(), seed=SEED).test_runs
        naive, = run_batch(plan, topology, templates, catalog, PHASES,
                           OracleCriteria(), seed=SEED, entry_only=True).test_runs
        assert dual.verdict == "FAIL_SILENT", (service, dual.verdict)
        assert naive.verdict == "PASS", (service, naive.verdict)
        checked += 1
    assert checked == 2
    _ok(4, "(both fire_and_forget bugs: entry-only PASS, dual-level FAIL_SILENT)")


def _random_instance(rng, partition):
    from resilitest.model import Endpoint
    from resilitest.planner import InjectionTarget, TestCase, case_digest

    n_traces = rng.randint(1, 10)
    n_endpoints = rng.randint(1, 15)
    cases = []
    if partition:
        eid = 0
        for t in range(n_traces):
            for _ in range(rng.randint(1, 3)):
                endpoint = Endpoint("Database", "fw", f"e{eid}")
                cases.append(TestCase(
                    case_id=case_digest(f"t{t}", eid, "f"),
                    target=InjectionTarget(f"t{t}", 1, endpoint, "svc",
                                           "last_invocation"),
                    fault_id="f"))
                eid += 1
    else:
        for t in range(n_traces):
            for e in rng.sample(range(n_endpoints),
                                rng.randint(1, min(5, n_endpoints))):
                endpoint = Endpoint("Database", "fw", f"e{e}")
                cases.append(TestCase(
                    case_id=case_digest(f"t{t}", e, "f"),
                    target=InjectionTarget(f"t{t}", 1, endpoint, "svc",
                                           "last_invocation"),
                    fault_id="f"))
    return cases


def _min_cover_runs(cases):
    coverage = {}
    for c in cases:
        coverage.setdefault(c.target.trace_id, set()).add(
            (c.target.endpoint, c.target.service))
    universe = set().union(*coverage.values())
    traces = sorted(coverage)
    for size in range(1, len(traces) + 1):
        for combo in itertools.combinations(traces, size):
            if set().union(*(coverage[t] for t in combo)) >= universe:
                return size
    return len(traces)


def test_criterion_5_scheduler_optimality_bound():
    t0 = time.monotonic()
    rng = random.Random(505)
    bound = 1 + math.log(15)
    for i in range(150):
        cases = _random_instance(rng, partition=False)
        greedy_runs = len(greedy_batch(cases).runs)
        assert greedy_runs <= _min_cover_runs(cases) * bound
    for i in range(50):
        cases = _random_instance(rng, partition=True)
        greedy_runs = len(greedy_batch(cases).runs)
        assert greedy_runs == _min_cover_runs(cases)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok(5, f"(200 instances within {bound:.2f}x bound, {elapsed:.1f}s)")


def _random_recorded_trace(rng, trace_id):
    services = ["alpha", "beta", "gamma"]
    kinds = [("Database", "d", ["select", "update", "insert", "delete"]),
             ("Cache", "c", ["get", "set", "delete"]),
             ("MQ", "m", ["send", "publish"]),
             ("HTTP", "h", ["get", "post"])]
    tokens = [f"tok-{i:04d}" for i in range(5)] + ["ab", "c"]
    spans = [root_span("s0", f"POST /svc/run/{trace_id}",
                       service=rng.choice(services), dur=500_000)]
    for i in range(1, rng.randint(2, 8)):
        component, framework, methods = rng.choice(kinds)
        spans.append(make_span(
            f"s{i}", "s0", service=rng.choice(services), component=component,
            framework=framework, method=rng.choice(methods),
            req={f"k{j}": rng.choice(tokens) for j in range(rng.randint(0, 3))},
            resp={f"r{j}": rng.choice(tokens) for j in range(rng.randint(0, 2))},
            start=i * 100, dur=50))
    return make_trace(trace_id, spans)


def test_criterion_6_pruning_equivalence(catalog):
    from resilitest.planner import detect_dual_write, detect_producer_consumer

    rng = random.Random(606)
    total_traces = 0
    while total_traces < 100:
        traces = [_random_recorded_trace(rng, f"t{total_traces}_{i}")
                  for i in range(rng.randint(1, 6))]
        total_traces += len(traces)
        corpus = new_corpus(traces, 0, "00")
        selected = [(f"if{i}", t) for i, t in enumerate(traces)]
        config = PlanConfig(n_services=2, seed=total_traces)
        got = [(c.target.trace_id, c.target.span_position, c.fault_id)
               for c in plan_targets(selected, corpus, catalog, config)]

        expected = []
        for _iface, trace in selected:
            pairs = [(pos, span) for pos, span in enumerate(trace.spans)
                     if span.span_id != trace.root]
            last = {}
            for pos, span in pairs:
                last[span.endpoint] = pos
            keep = {pos for pos, span in pairs if last[span.endpoint] == pos}
            keep -= {e.consumer_position
                     for e in detect_producer_consumer(trace)}
            for e in detect_dual_write(trace):
                keep -= set(e.write_positions) - {e.secondary_position}
            for pos, span in pairs:
                if pos not in keep:
                    continue
                sampled = sample_services(corpus, span.endpoint,
                                          config.n_services, config.seed)
                if span.service not in sampled:
                    continue
                for fault in faults_for_endpoint(catalog, span.endpoint):
                    expected.append((trace.trace_id, pos, fault.fault_id))
        assert got == expected
    _ok(6, f"({total_traces} random traces match the exhaustive oracle)")


def test_criterion_7_sensitivity_curves(pipeline, campaign_all, sweep):
    topology = pipeline.value[0]
    counts = {k: sweep.value[k][0] for k in (5, 10, 20, 40)}
    counts["all"] = len(campaign_all.extras["cases"])
    ks = [5, 10, 20, 40, "all"]
    series = [counts[k] for k in ks]
    assert all(b >= a for a, b in zip(series, series[1:])), series
    increments = [b - a for a, b in zip(series, series[1:])]
    assert increments[-1] < increments[-2], increments

    coverage = {}
    for k in (5, 10, 20, 40):
        flags, units = _detected_bugs(topology, sweep.value[k][1].test_runs)
        coverage[k] = len(units)
    _flags, units = _detected_bugs(topology, campaign_all.value.test_runs)
    coverage["all"] = len(units)
    curve = [coverage[k] for k in ks]
    assert all(b >= a for a, b in zip(curve, curve[1:])), curve
    assert coverage["all"] == len(_bug_units(topology))

    elapsed = sweep.seconds + campaign_all.seconds
    assert elapsed < 600.0
    _ok(7, f"(cases {series}, bug coverage {curve}, {elapsed:.0f}s)")


def test_criterion_8_history_cumulative_coverage(pipeline, catalog):
    topology, _workload, _corpus, _registry, analysis = pipeline.value
    history = History()
    plan_config = PlanConfig(n_services=3, seed=SEED)

    _sel1, cases1 = plan_campaign(analysis.ranked, analysis.corpus, catalog,
                                  10, plan_config, history=history)
    first = run_campaign(topology, analysis, catalog, cases1, PHASES,
                         OracleCriteria(), seed=SEED, history=history)
    pass1 = {tr.case_id for tr in first.test_runs if tr.verdict == "PASS"}
    coverage1 = first.coverage()

    _sel2, cases2 = plan_campaign(analysis.ranked, analysis.corpus, catalog,
                                  10, plan_config, history=history)
    second = run_campaign(topology, analysis, catalog, cases2, PHASES,
                          OracleCriteria(), seed=SEED, history=history)
    pass2 = {tr.case_id for tr in second.test_runs if tr.verdict == "PASS"}
    coverage2 = second.coverage()

    assert not (pass1 & pass2), "PASS-case sets overlap"
    total = len(coverage1 | coverage2)
    assert total > len(coverage1), "cumulative endpoint coverage did not grow"
    _ok(8, f"(disjoint PASS sets, coverage {len(coverage1)} -> {total})")


def test_criterion_9_determinism(pipeline, campaign_all, sweep, catalog,
                                 tmp_path):
    topology, workload, _corpus, registry, _analysis = pipeline.value

    # fresh end-to-end repetition with the same seed
    corpus2 = record_corpus(topology, workload, seed=SEED)
    analysis2 = analyze_corpus(corpus2, registry=registry)

    # criterion 2 analog: replay report
    bare2 = analyze_corpus(corpus2)
    check2 = replay_check(topology, bare2, seed=SEED)
    replay_report_2 = tmp_path / "replay2.jsonl"
    with open(replay_report_2, "w") as fh:
        for interface_id in sorted(check2.interface_ok):
            fh.write(dumps_canonical({"interface_id": interface_id,
                                      "ok": check2.interface_ok[interface_id]}) + "\n")
    corpus1 = record_corpus(topology, workload, seed=SEED)
    bare1 = analyze_corpus(corpus1)
    check1 = replay_check(topology, bare1, seed=SEED)
    replay_report_1 = tmp_path / "replay1.jsonl"
    with open(replay_report_1, "w") as fh:
        for interface_id in sorted(check1.interface_ok):
            fh.write(dumps_canonical({"interface_id": interface_id,
                                      "ok": check1.interface_ok[interface_id]}) + "\n")
    assert replay_report_1.read_bytes() == replay_report_2.read_bytes()

    # criterion 3 campaign repeated
    _sel, cases2_all = plan_campaign(analysis2.ranked, analysis2.corpus, catalog,
                                     "all", PlanConfig(n_services=3, seed=SEED))
    rerun = run_campaign(topology, analysis2, catalog, cases2_all, PHASES,
                         OracleCriteria(), seed=SEED)
    rerun_path = tmp_path / "campaign_all_rerun.jsonl"
    save_report(rerun, rerun_path, config={"top_k": "all", "seed": SEED})
    assert rerun_path.read_bytes() == campaign_all.extras["report"].read_bytes()

    # criterion 7 sweep point repeated (K=20)
    _sel, cases_k20 = plan_campaign(analysis2.ranked, analysis2.corpus, catalog,
                                    20, PlanConfig(n_services=3, seed=SEED))
    rerun20 = run_campaign(topology, analysis2, catalog, cases_k20, PHASES,
                           OracleCriteria(), seed=SEED)
    rerun20_path = tmp_path / "k20_rerun.jsonl"
    save_report(rerun20, rerun20_path, config={"top_k": "20", "seed": SEED})
    assert rerun20_path.read_bytes() == sweep.extras["reports"][20].read_bytes()
    _ok(9, "(replay, K=all, and K=20 reports byte-identical on rerun)")


def test_campaign_all_report_matches_its_pinned_digest(campaign_all):
    report = campaign_all.extras["report"].read_bytes()
    assert hashlib.sha256(report).hexdigest() == CAMPAIGN_ALL_REPORT_SHA256


def test_criterion_10_oracle_truth_table():
    t0 = time.monotonic()
    criteria = EffectiveCriteria(startup_min=1.0, inject_max=0.30,
                                 recover_min=0.80)

    def reference_table(s, i, r, hits, epf, downstream_ok):
        # independent transcription of the five-verdict decision table
        if s < 1.0:
            return "STARTUP_FAILURE"
        if hits == 0:
            return "FAIL_NO_IMPACT"
        if i > 0.30 and epf > 0 and not downstream_ok:
            return "FAIL_SILENT"
        if r < 0.80:
            return "FAIL_NO_RECOVERY"
        return "PASS"

    def metrics(rate):
        return PhaseMetrics(samples=100, success_rate=rate, p50_us=1,
                            p95_us=2, throughput_rps=1.0)

    grid = [round(i / 10, 1) for i in range(11)]
    checked = 0
    for s, i, r in itertools.product(grid, grid, grid):
        for hits in (0, 3):
            for epf in (0, 2):
                for downstream_ok in (True, False):
                    got = evaluate(metrics(s), metrics(i), metrics(r), hits,
                                   epf, 0, downstream_ok, criteria)
                    assert got == reference_table(s, i, r, hits, epf,
                                                  downstream_ok), \
                        (s, i, r, hits, epf, downstream_ok, got)
                    checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 11 ** 3 * 8 == 10648
    assert elapsed < 5.0
    _ok(10, f"({checked} grid points, {elapsed:.2f}s)")
