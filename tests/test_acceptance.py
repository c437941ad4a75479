"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The campaigns run the shipped CLI stages on the shipped reference assets, in
files, as a user runs them: `simulate-record`, `analyze`, `plan` and `run`
through `resilitest.cli.main`, with the arguments the benchmark uses, and the
verdicts are read back from the report. Heavy artifacts (the recorded corpus
and analysis, campaigns, sweeps) are built once in module-scoped fixtures that
also record their wall-clock cost, so the stated runtime budgets are asserted
against the real work.
"""

import hashlib
import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass

import pytest

from resilitest.campaign import analyze_corpus, replay_check
from resilitest.cli import main
from resilitest.executor import (EffectiveCriteria, FAIL_VERDICTS,
                                 OracleCriteria, PhaseConfig, PhaseMetrics,
                                 evaluate, load_report, run_batch)
from resilitest.faults import faults_for_endpoint
from resilitest.model import (compute_window, dumps_canonical,
                              load_indexed_traces, new_corpus)
from resilitest.planner import PlanConfig, plan_targets, sample_services
from resilitest.scheduler import Run, RunPlan, greedy_batch, load_run_plan
from resilitest.selection import load_selection_report
from resilitest.sim.engine import record_corpus
from resilitest.sim.topology import load_topology
from resilitest.sim.workload import load_workload
from resilitest.templating import (ManualVariableRegistry, build_template,
                                   load_templates)

from conftest import (REF_REGISTRY, REF_TOPOLOGY, REF_TOPOLOGY_BUGFREE,
                      REF_WORKLOAD, make_span, make_trace, root_span)
from reference_system import expected_interface_id

SEED = 7
SECOND = 1_000_000
PHASES = PhaseConfig(12 * SECOND, 12 * SECOND, 12 * SECOND, 5)
N_SERVICES = 3
# SHA-256 of the K=all report; a change that alters reports on purpose
# updates it and says why
CAMPAIGN_ALL_REPORT_SHA256 = \
    "fa4e9ea6ba7baed74a6a7ba1ef4da17a82c521fa2ea0a2cc7164a93933d18fa5"
# SHA-256 of the set-up artifacts and of the K=all run plan; the same rule
SETUP_SHA256 = {
    "corpus.txt": "00648eb0d4e18747a500e5bdda829754a1b15d2e3742dade37091102f1f349a0",
    "analysis/clusters.txt":
        "f4163a23f7a68e1249cfc6a3e0d6282b3e223a143afa65528ab13f6e18ba2c2a",
    "analysis/selection.jsonl":
        "2b6ab6f2bd0e23cba8d9d2b3f8c6b23b7a8dcea798d3a187d1ff8661c806eef6",
    "analysis/templates.jsonl":
        "205c263ddcca779757aa8fbab71aff1e489339fd0c53cbe9db27301f398b5e92",
    "analysis/corpus-index.jsonl":
        "5aa37a536b0600ec2080bee03f9440d43fcf0d0bf78f172e61824d2e647e5921",
}
CAMPAIGN_ALL_RUNPLAN_SHA256 = \
    "5ca54e231898d28bef2d68c72a5437663662284b0d50e096e50a07e6fb3aad6d"
# SHA-256 of the bug-free K=all report, the only campaign here that rolls
# back writes and buffers publishes; the same rule
CAMPAIGN_ALL_BUGFREE_REPORT_SHA256 = \
    "24ba5539ea3a17e3556505d0997295b74502a88adfb42c0a77f2ba7c179db3d7"


def _ok(criterion, detail=""):
    print(f"[criterion {criterion}] PASS {detail}".rstrip())


@dataclass
class Timed:
    value: object
    seconds: float


def _cli(*argv):
    argv = [str(arg) for arg in argv]
    assert main(argv) == 0, argv


def cli_setup(out, topology=REF_TOPOLOGY):
    """`simulate-record` and `analyze` (with the signature registry) on the
    reference workload, into directory `out`; returns `out`."""
    out.mkdir(parents=True, exist_ok=True)
    _cli("simulate-record", "--topology", topology, "--workload", REF_WORKLOAD,
         "--seed", SEED, "--out", out / "corpus.txt")
    _cli("analyze", "--corpus", out / "corpus.txt", "--registry", REF_REGISTRY,
         "--out-dir", out / "analysis")
    return out


def cli_campaign(out, top_k="all", topology=REF_TOPOLOGY, setup=None, history=None):
    """Run a campaign through the CLI into directory `out`, with the
    arguments of the benchmark's campaign; returns the report's path.

    The set-up stages run into `out` too, unless `setup` names a directory
    where `cli_setup` already ran. `history` is passed to `plan` and `run`
    when given.
    """
    setup = setup or cli_setup(out, topology)
    history_args = ("--history", history) if history else ()
    _cli("plan", "--corpus", setup / "corpus.txt", "--analysis", setup / "analysis",
         "--top-k", top_k, "--n-services", N_SERVICES, "--seed", SEED,
         "--out-dir", out / "plans", *history_args)
    _cli("run", "--run-plan", out / "plans" / "runplan.txt", "--topology", topology,
         "--templates", setup / "analysis" / "templates.jsonl", "--seed", SEED,
         "--phases", "12,12,12,5", "--top-k", top_k, "--out", out / "report.jsonl",
         *history_args)
    return out / "report.jsonl"


def _planned_cases(report):
    """How many cases the run plan next to `report` holds."""
    plan = load_run_plan(report.parent / "plans" / "runplan.txt")
    return sum(len(run.cases) for run in plan.runs)


def _bug_units(topology):
    units = {}
    for flag, svc_name, line, idx in topology.seeded_bugs():
        for svc in topology.services:
            if svc.name != svc_name:
                continue
            for iface in svc.interfaces:
                if iface.line == line:
                    units[(svc_name, iface.workflow[idx].endpoint().triple())] = flag
    return units


def _detected_bugs(topology, records):
    """The seeded-bug units with a verdict other than PASS in `records`."""
    units = _bug_units(topology)
    return {(rec["service"], rec["endpoint"]) for rec in records
            if rec["verdict"] != "PASS" and (rec["service"], rec["endpoint"]) in units}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The set-up directory of the seeded reference system."""
    return cli_setup(tmp_path_factory.mktemp("pipeline"))


@pytest.fixture(scope="module")
def campaign_all(pipeline, tmp_path_factory):
    t0 = time.monotonic()
    report = cli_campaign(tmp_path_factory.mktemp("campaign_all"), setup=pipeline)
    return Timed(report, time.monotonic() - t0)


@pytest.fixture(scope="module")
def campaign_all_bugfree(tmp_path_factory):
    t0 = time.monotonic()
    report = cli_campaign(tmp_path_factory.mktemp("campaign_all_bugfree"),
                          topology=REF_TOPOLOGY_BUGFREE)
    return Timed(report, time.monotonic() - t0)


@pytest.fixture(scope="module")
def sweep(pipeline, tmp_path_factory):
    t0 = time.monotonic()
    directory = tmp_path_factory.mktemp("sweep")
    reports = {k: cli_campaign(directory / f"k{k}", k, setup=pipeline)
               for k in (5, 10, 20, 40)}
    return Timed(reports, time.monotonic() - t0)


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
                              window=compute_window(traces), trace_id="t0")
    parameterized = set(template.placeholders)
    elapsed = time.monotonic() - t0
    assert parameterized == {"session_id"}
    assert elapsed < 1.0
    _ok(1, f"(exactly session_id, {elapsed:.3f}s)")


def test_criterion_2_replayability(tmp_path):
    t0 = time.monotonic()
    topology = load_topology(REF_TOPOLOGY)
    workload = list(load_workload(REF_WORKLOAD))
    corpus = record_corpus(topology, workload, seed=SEED)
    assert len({c.interface_id for c in analyze_corpus(corpus).clusters}) >= 200

    bare = analyze_corpus(corpus)  # no manual registrations
    check = replay_check(topology, bare, seed=SEED)
    fraction = check.success_fraction
    assert fraction >= 0.98

    # the residual failures are exactly the seeded signature-token interfaces
    signature_ids = {expected_interface_id(iface)
                     for _svc, iface in topology.interfaces()
                     if any(f.kind == "signature" for f in iface.fields)}
    failed_ids = {iid for iid, ok in check.interface_ok.items() if not ok}
    assert failed_ids == signature_ids

    registered = analyze_corpus(corpus, registry=ManualVariableRegistry.load(REF_REGISTRY))
    check_registered = replay_check(topology, registered, seed=SEED)
    elapsed = time.monotonic() - t0
    assert check_registered.success_fraction == 1.0
    assert elapsed < 60.0
    _ok(2, f"({fraction:.4f} unregistered, 1.0000 registered, {elapsed:.1f}s)")


def test_criterion_3_seeded_bug_detection(ref_topology, campaign_all,
                                          campaign_all_bugfree):
    records, _summary = load_report(campaign_all.value)
    bug_count = len(_detected_bugs(ref_topology, records))
    assert bug_count >= 9, f"only {bug_count}/10 seeded bugs detected"

    bugfree, _summary = load_report(campaign_all_bugfree.value)
    counts = Counter(rec["verdict"] for rec in bugfree)
    false_fails = sum(counts[v] for v in FAIL_VERDICTS)
    assert false_fails == 0, f"{false_fails} false FAIL verdicts on bug-free variant"
    assert counts["STARTUP_FAILURE"] == 0

    elapsed = campaign_all.seconds + campaign_all_bugfree.seconds
    assert elapsed < 300.0
    _ok(3, f"({bug_count}/10 bugs, 0 false FAILs in {len(bugfree)} cases, {elapsed:.0f}s)")


def test_criterion_4_granular_oracle_differential(pipeline, ref_topology, catalog):
    units = {unit: flag for unit, flag in _bug_units(ref_topology).items()
             if flag == "fire_and_forget"}
    assert len(units) == 2
    # what `plan` and `run` read of the set-up artifacts
    ranked = load_selection_report(pipeline / "analysis" / "selection.jsonl")
    corpus = load_indexed_traces(pipeline / "corpus.txt",
                                 pipeline / "analysis" / "corpus-index.jsonl",
                                 [sel.trace_id for sel in ranked], "selection")
    templates = load_templates(pipeline / "analysis" / "templates.jsonl")
    traces = {t.trace_id: t for t in corpus.traces}
    checked = 0
    for (service, endpoint) in sorted(units, key=lambda u: u[0]):
        case = None
        for sel in ranked:
            trace = traces[sel.trace_id]
            for c in plan_targets([trace], corpus, catalog,
                                  PlanConfig(n_services=N_SERVICES, seed=SEED)):
                if (c.target.service, c.target.endpoint.triple()) == (service, endpoint) \
                        and c.fault_id == "mq-disconnect":
                    case = c
            if case:
                break
        assert case is not None, f"no planned case for {service}"
        plan = RunPlan(runs=[Run(trace_id=case.target.trace_id, cases=[case])])
        dual, = run_batch(plan, ref_topology, templates, catalog, PHASES,
                          OracleCriteria(), seed=SEED).test_runs
        naive, = run_batch(plan, ref_topology, templates, catalog, PHASES,
                           OracleCriteria(), seed=SEED, entry_only=True).test_runs
        assert dual["verdict"] == "FAIL_SILENT", (service, dual["verdict"])
        assert naive["verdict"] == "PASS", (service, naive["verdict"])
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
    from resilitest.planner import dual_write_groups, producer_consumer_pairs

    rng = random.Random(606)
    total_traces = 0
    while total_traces < 100:
        traces = [_random_recorded_trace(rng, f"t{total_traces}_{i}")
                  for i in range(rng.randint(1, 6))]
        total_traces += len(traces)
        corpus = new_corpus(traces, 0, "00")
        config = PlanConfig(n_services=2, seed=total_traces)
        got = [(c.target.trace_id, c.target.span_position, c.fault_id)
               for c in plan_targets(traces, corpus, catalog, config)]

        expected = []
        for trace in traces:
            pairs = [(pos, span) for pos, span in enumerate(trace.spans)
                     if span.span_id != trace.root]
            last = {}
            for pos, span in pairs:
                last[span.endpoint] = pos
            keep = {pos for pos, span in pairs if last[span.endpoint] == pos}
            keep -= {j for _i, j in producer_consumer_pairs(trace)}
            for group in dual_write_groups(trace):
                keep -= set(group[:-1])
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


def test_criterion_7_sensitivity_curves(ref_topology, campaign_all, sweep):
    reports = {**sweep.value, "all": campaign_all.value}
    ks = [5, 10, 20, 40, "all"]
    series = [_planned_cases(reports[k]) for k in ks]
    assert all(b >= a for a, b in zip(series, series[1:])), series
    increments = [b - a for a, b in zip(series, series[1:])]
    assert increments[-1] < increments[-2], increments

    curve = [len(_detected_bugs(ref_topology, load_report(reports[k])[0])) for k in ks]
    assert all(b >= a for a, b in zip(curve, curve[1:])), curve
    assert curve[-1] == len(_bug_units(ref_topology))

    elapsed = sweep.seconds + campaign_all.seconds
    assert elapsed < 600.0
    _ok(7, f"(cases {series}, bug coverage {curve}, {elapsed:.0f}s)")


def test_criterion_8_history_cumulative_coverage(pipeline, tmp_path):
    history = tmp_path / "history.txt"
    first, _summary = load_report(cli_campaign(tmp_path / "first", 10,
                                               setup=pipeline, history=history))
    pass1 = {rec["case_id"] for rec in first if rec["verdict"] == "PASS"}
    coverage1 = {(rec["endpoint"], rec["service"]) for rec in first}

    second, _summary = load_report(cli_campaign(tmp_path / "second", 10,
                                                setup=pipeline, history=history))
    pass2 = {rec["case_id"] for rec in second if rec["verdict"] == "PASS"}
    coverage2 = {(rec["endpoint"], rec["service"]) for rec in second}

    assert not (pass1 & pass2), "PASS-case sets overlap"
    total = len(coverage1 | coverage2)
    assert total > len(coverage1), "cumulative endpoint coverage did not grow"
    _ok(8, f"(disjoint PASS sets, coverage {len(coverage1)} -> {total})")


def _replay_report(topology, workload):
    corpus = record_corpus(topology, workload, seed=SEED)
    check = replay_check(topology, analyze_corpus(corpus), seed=SEED)  # no registry
    return "".join(dumps_canonical({"interface_id": interface_id, "ok": ok}) + "\n"
                   for interface_id, ok in sorted(check.interface_ok.items()))


def test_criterion_9_determinism(pipeline, campaign_all, sweep, ref_topology,
                                 ref_workload, tmp_path):
    # criterion 2 analog: two replay reports from two recordings
    assert _replay_report(ref_topology, ref_workload) == \
        _replay_report(ref_topology, ref_workload)

    # criterion 3 campaign repeated end to end, set-up included
    rerun = cli_campaign(tmp_path / "all")
    for name in SETUP_SHA256:
        assert (tmp_path / "all" / name).read_bytes() == \
            (pipeline / name).read_bytes(), name
    assert rerun.read_bytes() == campaign_all.value.read_bytes()

    # criterion 7 sweep point repeated (K=20) on the repeated set-up
    rerun20 = cli_campaign(tmp_path / "k20", 20, setup=tmp_path / "all")
    assert rerun20.read_bytes() == sweep.value[20].read_bytes()
    _ok(9, "(replay, set-up, K=all, and K=20 artifacts byte-identical on rerun)")


def test_campaign_all_report_matches_its_pinned_digest(campaign_all):
    report = campaign_all.value.read_bytes()
    assert hashlib.sha256(report).hexdigest() == CAMPAIGN_ALL_REPORT_SHA256


def test_campaign_all_bugfree_report_matches_its_pinned_digest(campaign_all_bugfree):
    report = campaign_all_bugfree.value.read_bytes()
    assert hashlib.sha256(report).hexdigest() == CAMPAIGN_ALL_BUGFREE_REPORT_SHA256


def test_set_up_artifacts_and_run_plan_match_their_pinned_digests(pipeline, campaign_all):
    got = {name: hashlib.sha256((pipeline / name).read_bytes()).hexdigest()
           for name in SETUP_SHA256}
    assert got == SETUP_SHA256
    runplan = campaign_all.value.parent / "plans" / "runplan.txt"
    assert hashlib.sha256(runplan.read_bytes()).hexdigest() == CAMPAIGN_ALL_RUNPLAN_SHA256


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
