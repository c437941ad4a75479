import gc
import os
import select
import signal
import time
import weakref
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilitest import executor
from resilitest.executor import (EffectiveCriteria, ExecutorError,
                                 OracleCriteria, PhaseConfig, PhaseMetrics,
                                 evaluate, execute_run, load_report, run_batch,
                                 save_report)
from resilitest.faults import default_catalog
from resilitest.model import Endpoint
from resilitest.planner import InjectionTarget, PlanConfig, TestCase, plan_targets
from resilitest.scheduler import History, Run, RunPlan, greedy_batch
from resilitest.sim.engine import System, record_corpus
from resilitest.campaign import analyze_corpus
from resilitest.templating import EntryRequest, TraceTemplate

from conftest import make_mini_topology, make_mini_workload

SECOND = 1_000_000
FAST = PhaseConfig(6 * SECOND, 6 * SECOND, 6 * SECOND, 5)


def _metrics(rate, samples=60):
    return PhaseMetrics(samples=samples, success_rate=rate, p50_us=1000,
                        p95_us=2000, throughput_rps=5.0)


DEFAULTS = EffectiveCriteria(startup_min=1.0, inject_max=0.30, recover_min=0.80)


def test_criteria_ordering_invariant():
    with pytest.raises(ExecutorError):
        EffectiveCriteria(startup_min=1.0, inject_max=0.9, recover_min=0.8)
    with pytest.raises(ExecutorError):
        EffectiveCriteria(startup_min=0.7, inject_max=0.3, recover_min=0.8)


def test_override_single_interface():
    criteria = OracleCriteria(per_interface={"ifx": {"inject_max_success": 0.5}})
    assert criteria.resolve("ifx").inject_max == 0.5
    assert criteria.resolve("other").inject_max == 0.30


def test_criteria_file_resolves_interface_override(tmp_path):
    path = tmp_path / "criteria.json"
    path.write_text('{"inject_max_success": 0.2, "interfaces": '
                    '{"ifa": {"recover_min_success": 0.65}}}', encoding="utf-8")
    loaded = OracleCriteria.load(path)
    assert loaded.resolve("ifa") == EffectiveCriteria(
        startup_min=1.0, inject_max=0.2, recover_min=0.65)
    assert loaded.resolve("ifb") == EffectiveCriteria(
        startup_min=1.0, inject_max=0.2, recover_min=0.80)


def test_evaluate_pass_case():
    verdict = evaluate(_metrics(1.0), _metrics(0.20), _metrics(0.85),
                       injection_hits=5, inject_endpoint_failures=5,
                       recover_endpoint_failures=0, downstream_effect_ok=True,
                       criteria=DEFAULTS)
    assert verdict == "PASS"


def test_evaluate_no_recovery_below_threshold():
    verdict = evaluate(_metrics(1.0), _metrics(0.20), _metrics(0.50),
                       injection_hits=5, inject_endpoint_failures=5,
                       recover_endpoint_failures=0, downstream_effect_ok=True,
                       criteria=DEFAULTS)
    assert verdict == "FAIL_NO_RECOVERY"


def test_evaluate_silent_failure():
    verdict = evaluate(_metrics(1.0), _metrics(0.35), _metrics(0.85),
                       injection_hits=5, inject_endpoint_failures=3,
                       recover_endpoint_failures=0, downstream_effect_ok=False,
                       criteria=DEFAULTS)
    assert verdict == "FAIL_SILENT"


def test_evaluate_no_impact_when_zero_hits():
    verdict = evaluate(_metrics(1.0), _metrics(1.0), _metrics(1.0),
                       injection_hits=0, inject_endpoint_failures=0,
                       recover_endpoint_failures=0, downstream_effect_ok=True,
                       criteria=DEFAULTS)
    assert verdict == "FAIL_NO_IMPACT"


def test_evaluate_startup_failure_takes_precedence():
    verdict = evaluate(_metrics(0.9), _metrics(0.0), _metrics(0.0),
                       injection_hits=0, inject_endpoint_failures=0,
                       recover_endpoint_failures=0, downstream_effect_ok=False,
                       criteria=DEFAULTS)
    assert verdict == "STARTUP_FAILURE"


def test_evaluate_residual_endpoint_failures_fail_recovery():
    verdict = evaluate(_metrics(1.0), _metrics(1.0), _metrics(1.0),
                       injection_hits=5, inject_endpoint_failures=5,
                       recover_endpoint_failures=2, downstream_effect_ok=True,
                       criteria=DEFAULTS)
    assert verdict == "FAIL_NO_RECOVERY"


def test_evaluate_entry_only_skips_granular_assertions():
    verdict = evaluate(_metrics(1.0), _metrics(1.0), _metrics(1.0),
                       injection_hits=0, inject_endpoint_failures=5,
                       recover_endpoint_failures=5, downstream_effect_ok=False,
                       criteria=DEFAULTS, entry_only=True)
    assert verdict == "PASS"


def test_evaluate_requires_all_phases():
    with pytest.raises(ExecutorError):
        evaluate(_metrics(1.0), None, _metrics(1.0), 1, 1, 0, True, DEFAULTS)


@given(s=st.floats(0, 1), i=st.floats(0, 1), r=st.floats(0, 1),
       hits=st.integers(0, 5), epf_i=st.integers(0, 5), epf_r=st.integers(0, 5),
       downstream=st.booleans())
@settings(max_examples=300, deadline=None)
def test_evaluate_is_pure_and_total_over_random_tuples(s, i, r, hits, epf_i,
                                                       epf_r, downstream):
    first = evaluate(_metrics(s), _metrics(i), _metrics(r), hits, epf_i, epf_r,
                     downstream, DEFAULTS)
    second = evaluate(_metrics(s), _metrics(i), _metrics(r), hits, epf_i, epf_r,
                      downstream, DEFAULTS)
    assert first == second
    assert first in ("PASS", "FAIL_NO_RECOVERY", "FAIL_SILENT",
                     "FAIL_NO_IMPACT", "STARTUP_FAILURE")
    # decision-table transcription, independent of the implementation
    if s < 1.0:
        expected = "STARTUP_FAILURE"
    elif hits == 0:
        expected = "FAIL_NO_IMPACT"
    elif i > 0.30 and epf_i > 0 and not downstream:
        expected = "FAIL_SILENT"
    elif r < 0.80 or epf_r > 0:
        expected = "FAIL_NO_RECOVERY"
    else:
        expected = "PASS"
    assert first == expected


@pytest.fixture(scope="module")
def mini_setup():
    spec = make_mini_topology()
    corpus = record_corpus(spec, make_mini_workload(spec), seed=5)
    analysis = analyze_corpus(corpus)
    catalog = default_catalog()
    return spec, corpus, analysis, catalog


def _mini_cases(analysis, corpus, catalog, n_services=3, seed=5):
    traces = {t.trace_id: t for t in corpus.traces}
    selected = [traces[s.trace_id] for s in analysis.ranked]
    return plan_targets(selected, corpus, catalog, PlanConfig(n_services, seed))


def _run_one(case, analysis, spec, catalog, seed, entry_only=False):
    """One case on a fresh system, the way `resilitest run` executes it."""
    plan = RunPlan(runs=[Run(trace_id=case.target.trace_id, cases=[case])])
    result = run_batch(plan, spec, list(analysis.templates.values()), catalog,
                       FAST, OracleCriteria(), seed=seed, entry_only=entry_only)
    return result.test_runs[0]


def test_run_test_healthy_resilient_case(mini_setup):
    spec, corpus, analysis, catalog = mini_setup
    cases = _mini_cases(analysis, corpus, catalog)
    case = next(c for c in cases if c.fault_id == "db-sql-timeout")
    result = _run_one(case, analysis, spec, catalog, seed=3)
    assert result.verdict == "PASS"
    assert result.injection_hits > 0
    assert result.startup.success_rate == 1.0
    assert result.inject.success_rate <= 0.30
    assert result.recover.success_rate >= 0.80


def test_fire_and_forget_differential_oracle(catalog):
    spec = make_mini_topology(bug="fire_and_forget")
    corpus = record_corpus(spec, make_mini_workload(spec), seed=5)
    analysis = analyze_corpus(corpus)
    cases = _mini_cases(analysis, corpus, catalog)
    case = next(c for c in cases if c.fault_id == "mq-disconnect"
                and c.target.endpoint.component == "MQ")
    dual = _run_one(case, analysis, spec, catalog, seed=3)
    assert dual.verdict == "FAIL_SILENT"
    naive = _run_one(case, analysis, spec, catalog, seed=3, entry_only=True)
    assert naive.verdict == "PASS"


def _reference_protocol_startups(plan, verdicts):
    """Independent step-by-step re-execution of the batching protocol: walk
    each run, stop at the first non-PASS, re-batch the remainder."""
    startups = 0
    queue = list(plan.runs)
    while queue:
        deferred = []
        for run in queue:
            startups += 1
            for position, case in enumerate(run.cases):
                if verdicts[case.case_id] != "PASS":
                    deferred.extend(run.cases[position + 1:])
                    break
        queue = greedy_batch(deferred).runs if deferred else []
    return startups


def test_fail_fast_defers_rest_of_run_and_startup_count_matches_reference(catalog):
    spec = make_mini_topology(bug="swallow_then_succeed")
    corpus = record_corpus(spec, make_mini_workload(spec), seed=5)
    analysis = analyze_corpus(corpus)
    cases = _mini_cases(analysis, corpus, catalog)
    # keep plans small: <= 5 cases as per the reference-oracle example
    cases = cases[:5]
    plan = greedy_batch(cases)
    result = run_batch(plan, spec, list(analysis.templates.values()), catalog,
                       FAST, OracleCriteria(), seed=9)
    assert len(result.test_runs) == len(cases)  # exactly once
    assert len({tr.case_id for tr in result.test_runs}) == len(cases)
    verdicts = {tr.case_id: tr.verdict for tr in result.test_runs}
    assert result.startup_count == _reference_protocol_startups(plan, verdicts)
    assert result.startup_count == result.initial_runs + result.reschedules


def test_all_pass_run_shares_single_startup(mini_setup):
    spec, corpus, analysis, catalog = mini_setup
    cases = [c for c in _mini_cases(analysis, corpus, catalog)
             if c.fault_id in ("db-sql-timeout", "http-500")][:3]
    plan = greedy_batch(cases)
    result = run_batch(plan, spec, list(analysis.templates.values()), catalog,
                       FAST, OracleCriteria(), seed=2)
    assert all(tr.verdict == "PASS" for tr in result.test_runs)
    assert result.startup_count == len(plan.runs)
    assert result.reschedules == 0


def test_history_records_outcomes(mini_setup):
    spec, corpus, analysis, catalog = mini_setup
    cases = _mini_cases(analysis, corpus, catalog)[:4]
    history = History()
    run_batch(greedy_batch(cases), spec, list(analysis.templates.values()),
              catalog, FAST, OracleCriteria(), seed=4, history=history)
    assert all(history.executed.get(c.case_id) for c in cases)


def test_run_batch_checks_every_case_trace_before_any_case_runs(mini_setup, monkeypatch):
    # the stray case would be deferred onto its own trace, which has no template
    spec, corpus, analysis, catalog = mini_setup
    case = _mini_cases(analysis, corpus, catalog)[0]
    stray = replace(case, case_id="stray", target=replace(case.target, trace_id="t999999"))
    plan = RunPlan(runs=[Run(trace_id=case.target.trace_id, cases=[case, stray])])
    monkeypatch.setattr(executor, "execute_run",
                        lambda *args, **kwargs: pytest.fail("a case ran"))
    with pytest.raises(ExecutorError, match="no template for trace t999999"):
        run_batch(plan, spec, list(analysis.templates.values()), catalog, FAST,
                  OracleCriteria())


def test_run_batch_skips_cases_passed_in_the_history(mini_setup):
    spec, corpus, analysis, catalog = mini_setup
    cases = _mini_cases(analysis, corpus, catalog)[:4]
    history = History()
    history.record_outcome(cases[0].case_id, "PASS")
    result = run_batch(greedy_batch(cases), spec, list(analysis.templates.values()),
                       catalog, FAST, OracleCriteria(), seed=4, history=history)
    assert sorted(tr.case_id for tr in result.test_runs) == sorted(
        c.case_id for c in cases[1:])
    assert all(history.executed.get(c.case_id) for c in cases)


def test_report_round_trip(tmp_path, mini_setup):
    spec, corpus, analysis, catalog = mini_setup
    cases = _mini_cases(analysis, corpus, catalog)[:4]
    result = run_batch(greedy_batch(cases), spec,
                       list(analysis.templates.values()), catalog, FAST,
                       OracleCriteria(), seed=4)
    path = tmp_path / "report.jsonl"
    save_report(result, path, config={"top_k": "all"})
    runs, summary = load_report(path)
    assert len(runs) == len(result.test_runs)
    assert summary["verdicts"]["PASS"] == result.verdict_counts()["PASS"]
    assert summary["config"]["top_k"] == "all"
    for original, loaded in zip(result.test_runs, runs):
        assert (loaded["case_id"], loaded["service"], loaded["endpoint"],
                loaded["fault_id"], loaded["verdict"]) == (
            original.case_id, original.service, original.endpoint.triple(),
            original.fault_id, original.verdict)


def test_report_save_interrupted_keeps_earlier_file(tmp_path, mini_setup):
    spec, corpus, analysis, catalog = mini_setup
    cases = _mini_cases(analysis, corpus, catalog)[:4]
    result = run_batch(greedy_batch(cases), spec,
                       list(analysis.templates.values()), catalog, FAST,
                       OracleCriteria(), seed=4)
    path = tmp_path / "report.jsonl"
    save_report(result, path)
    before = path.read_bytes()
    # the second record cannot be serialized, after the first was written
    broken = replace(result, test_runs=[result.test_runs[0], None])
    with pytest.raises(AttributeError):
        save_report(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.jsonl"]


def test_finished_run_frees_its_system_without_the_collector(mini_setup, monkeypatch):
    spec, corpus, analysis, catalog = mini_setup
    case = _mini_cases(analysis, corpus, catalog)[0]
    template = next(t for t in analysis.templates.values()
                    if t.trace_id == case.target.trace_id)
    systems = []

    def tracked_system(*args):
        system = System(*args)
        systems.append(weakref.ref(system))
        return system

    monkeypatch.setattr(executor, "System", tracked_system)
    gc.collect()
    gc.disable()
    try:
        execute_run(Run(case.target.trace_id, [case]), spec, template, catalog, FAST,
                    OracleCriteria(), run_seed=3)
        assert len(systems) == 1 and systems[0]() is None
    finally:
        gc.enable()


def test_empty_campaign_is_empty_report(tmp_path, mini_setup):
    spec, corpus, analysis, catalog = mini_setup
    result = run_batch(greedy_batch([]), spec, list(analysis.templates.values()),
                       catalog, FAST, OracleCriteria())
    assert result.test_runs == [] and result.startup_count == 0


@pytest.fixture()
def deadline():
    """Fail a test that runs over 60 s instead of letting a deadlock hang the suite."""
    def expire(_signum, _frame):
        raise TimeoutError("over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _run_wave_of(monkeypatch, cpus, n, fake):
    """run_batch over one wave of n runs, run i on trace t<i> with i % 3 + 1
    cases, on `cpus` CPUs, with `fake` in place of execute_run."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))
    monkeypatch.setattr(executor, "execute_run", fake)
    endpoint = Endpoint("HTTP", "server", "get")
    runs = [Run(f"t{i}", [TestCase(f"c{i}.{j}", InjectionTarget(f"t{i}", 0, endpoint, "s", ""),
                                   "http-500") for j in range(i % 3 + 1)])
            for i in range(n)]
    templates = [TraceTemplate("if", f"t{i}", EntryRequest("GET /a", {}), {})
                 for i in range(n)]
    return run_batch(RunPlan(runs), None, templates, None, FAST, OracleCriteria())


def _passes(run, *_args, **_kwargs):
    return [SimpleNamespace(case_id=case.case_id, verdict="PASS") for case in run.cases], []


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_run_batch_merges_the_runs_of_a_wave_in_run_order(monkeypatch, deadline, cpus):
    # runs are handed out largest first, t2 and t5 before t0
    result = _run_wave_of(monkeypatch, cpus, 6, _passes)
    assert [tr.case_id for tr in result.test_runs] == [
        f"c{i}.{j}" for i in range(6) for j in range(i % 3 + 1)]
    assert result.startup_count == 6
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_batch_raises_the_error_of_the_lowest_failing_run(monkeypatch, deadline,
                                                             cpus):
    def fake(run, *args, **kwargs):
        if run.trace_id in ("t3", "t5"):  # t5 has more cases, so it is taken first
            raise ExecutorError(f"boom {run.trace_id[1:]}")
        return _passes(run)

    with pytest.raises(ExecutorError) as caught:
        _run_wave_of(monkeypatch, cpus, 6, fake)
    assert (type(caught.value), str(caught.value)) == (ExecutorError, "boom 3")
    _assert_no_child_left()


def test_a_worker_that_dies_is_an_error_naming_its_status(monkeypatch, deadline):
    parent = os.getpid()
    died_read, died_write = os.pipe()

    def fake(run, *args, **kwargs):
        if os.getpid() != parent:
            os.write(died_write, b"x")
            os._exit(9)
        if run.trace_id == "t2":  # the parent's first run: wait for a child to take one
            select.select([died_read], [], [], 30)
        return _passes(run)

    try:
        with pytest.raises(ExecutorError, match="exited with status 9 before sending"):
            _run_wave_of(monkeypatch, 2, 6, fake)
    finally:
        os.close(died_read)
        os.close(died_write)
    _assert_no_child_left()


def test_an_interrupt_in_the_parent_kills_and_reaps_every_child(monkeypatch, deadline):
    parent = os.getpid()

    def fake(run, *args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _run_wave_of(monkeypatch, 2, 6, fake)
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_wave_of_more_runs_than_a_pipe_holds_finishes(monkeypatch, deadline, cpus):
    result = _run_wave_of(monkeypatch, cpus, 20_000, lambda *args, **kwargs: ([], []))
    assert result.startup_count == 20_000
    _assert_no_child_left()
