import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilitest.model import Endpoint
from resilitest.planner import InjectionTarget, TestCase, case_digest
from resilitest.scheduler import (History, Run, RunPlan, coverage_unit,
                                  filter_history, greedy_batch, load_run_plan,
                                  save_run_plan)


def _case(trace_id, endpoint_name, fault_id="f0", service="svc"):
    endpoint = Endpoint("Database", "fw", endpoint_name)
    return TestCase(
        case_id=case_digest(trace_id, hash(endpoint_name) % 97, fault_id),
        target=InjectionTarget(trace_id=trace_id, span_position=1,
                               endpoint=endpoint, service=service,
                               rationale="last_invocation"),
        fault_id=fault_id)


def test_single_trace_single_run():
    cases = [_case("t1", "a"), _case("t1", "b", "f1")]
    plan = greedy_batch(cases)
    assert len(plan.runs) == 1
    assert plan.runs[0].trace_id == "t1"
    assert plan.runs[0].cases == cases


def test_spec_example_absorption_depends_on_case_ownership():
    # traces with endpoint sets {A,B}, {B,C}, {C}; one case per endpoint
    # C's case on trace 2 -> absorbed into trace 2's run (2 runs)
    cases = [_case("t1", "A"), _case("t2", "B"), _case("t2", "C")]
    plan = greedy_batch(cases)
    assert [r.trace_id for r in plan.runs] == ["t2", "t1"]
    assert len(plan.runs) == 2
    # C's case on trace 3 -> its own third run
    cases = [_case("t1", "A"), _case("t2", "B"), _case("t3", "C")]
    plan = greedy_batch(cases)
    assert len(plan.runs) == 3


def test_every_case_lands_in_exactly_one_run():
    rng = random.Random(4)
    cases = []
    for t in range(6):
        for e in range(rng.randint(1, 4)):
            cases.append(_case(f"t{t}", f"e{rng.randint(0, 5)}",
                               fault_id=f"f{t}_{e}"))
    plan = greedy_batch(cases)
    flat = [c.case_id for r in plan.runs for c in r.cases]
    assert sorted(flat) == sorted(c.case_id for c in cases)
    assert len(plan.runs) <= len({c.target.trace_id for c in cases})


def test_case_hosted_by_covering_trace():
    # t1 covers units of t2's case -> one run hosts both
    cases = [_case("t1", "shared"), _case("t2", "shared", "f9")]
    plan = greedy_batch(cases)
    assert len(plan.runs) == 1
    assert {c.case_id for c in plan.runs[0].cases} == {c.case_id for c in cases}


def _brute_force_min_runs(cases):
    traces = sorted({c.target.trace_id for c in cases})
    coverage = {}
    for c in cases:
        coverage.setdefault(c.target.trace_id, set()).add(
            (c.target.endpoint, c.target.service))
    universe = {(c.target.endpoint, c.target.service) for c in cases}
    for size in range(1, len(traces) + 1):
        for combo in itertools.combinations(traces, size):
            covered = set()
            for t in combo:
                covered |= coverage[t]
            if covered >= universe:
                return size
    return len(traces)


def test_greedy_respects_set_cover_bound_and_partition_optimality():
    rng = random.Random(77)
    for round_no in range(60):
        n_traces = rng.randint(1, 8)
        n_endpoints = rng.randint(1, 10)
        cases = []
        for t in range(n_traces):
            for e in rng.sample(range(n_endpoints),
                                rng.randint(1, min(4, n_endpoints))):
                cases.append(_case(f"t{t}", f"e{e}", fault_id=f"f{t}_{e}"))
        plan = greedy_batch(cases)
        optimum = _brute_force_min_runs(cases)
        assert len(plan.runs) <= optimum * (1 + math.log(n_endpoints + 1))

    # partition instances: greedy is exactly optimal
    for round_no in range(20):
        n_traces = rng.randint(1, 6)
        cases = []
        endpoint_counter = 0
        for t in range(n_traces):
            for _ in range(rng.randint(1, 3)):
                cases.append(_case(f"t{t}", f"unique{endpoint_counter}",
                                   fault_id=f"f{endpoint_counter}"))
                endpoint_counter += 1
        plan = greedy_batch(cases)
        assert len(plan.runs) == _brute_force_min_runs(cases)


def _greedy_batch_oracle(cases):
    """greedy_batch as it was before pending cases were grouped by unit: each
    pick re-tests every pending case against every trace's coverage."""
    trace_coverage = {}
    for case in cases:
        trace_coverage.setdefault(case.target.trace_id, set()).add(coverage_unit(case))
    pending = list(cases)
    covered = set()
    runs = []
    while pending:
        best_trace = None
        best_key = None
        for trace_id in sorted(trace_coverage):
            coverage = trace_coverage[trace_id]
            hostable = [c for c in pending if coverage_unit(c) in coverage]
            if not hostable:
                continue
            gain = len({coverage_unit(c) for c in hostable} - covered)
            key = (-gain, -len(hostable), trace_id)
            if best_key is None or key < best_key:
                best_key = key
                best_trace = trace_id
        coverage = trace_coverage[best_trace]
        run_cases = [c for c in pending if coverage_unit(c) in coverage]
        pending = [c for c in pending if coverage_unit(c) not in coverage]
        covered |= coverage
        runs.append(Run(trace_id=best_trace, cases=run_cases))
    return RunPlan(runs=runs)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 6), st.integers(0, 2),
                          st.integers(0, 3)),
                min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_greedy_batch_matches_the_ungrouped_oracle(specs):
    cases = [_case(f"t{t}", f"e{e}", fault_id=f"f{f}", service=f"svc{s}")
             for t, e, s, f in specs]
    assert greedy_batch(cases) == _greedy_batch_oracle(cases)


def test_greedy_empty_input_gives_empty_plan():
    assert greedy_batch([]) == RunPlan(runs=[])


def test_filter_history_empty_history_keeps_all():
    cases = [_case("t1", "a"), _case("t1", "b", "f1")]
    assert filter_history(cases, History()) == cases


def test_filter_history_skips_passed_and_keeps_failed():
    cases = [_case("t1", "a"), _case("t1", "b", "f1")]
    history = History()
    history.record_outcome(cases[0].case_id, "PASS")
    history.record_outcome(cases[1].case_id, "FAIL_SILENT")
    assert [c.case_id for c in filter_history(cases, history)] == [cases[1].case_id]


def test_reset_clears_skips_and_increments_epoch():
    cases = [_case("t1", "a")]
    history = History()
    history.record_outcome(cases[0].case_id, "PASS")
    assert filter_history(cases, history) == []
    epoch_before = history.epoch
    history.reset()
    assert history.epoch == epoch_before + 1
    assert filter_history(cases, history) == cases


def test_last_write_wins():
    history = History()
    history.record_outcome("c1", "PASS")
    history.record_outcome("c1", "FAIL_NO_RECOVERY")
    assert not history.passed("c1")
    history.record_outcome("c1", "PASS")
    assert history.passed("c1")


def test_history_file_round_trip(tmp_path):
    history = History()
    history.record_outcome("c1", "PASS")
    history.record_outcome("c2", "FAIL_SILENT")
    history.reset()
    history.record_outcome("c3", "PASS")
    path = tmp_path / "history.txt"
    history.save(path)
    loaded = History.load(path)
    assert loaded.epoch == 1
    assert loaded.passed("c3")
    assert not loaded.passed("c1")  # earlier epoch no longer skips


@pytest.mark.parametrize("text, message", [
    ("0 c1 PASS 1\nx c2 PASS 2\n", "line 2: epoch 'x' is not an integer"),
    ("0 c1 PASS 1.5\n", "line 1: sequence number '1.5' is not an integer"),
    # an earlier epoch after a reset, which would count caseB as passed in epoch 1
    ("1 - RESET 1\n0 caseB PASS 2\n", "line 2: out of order after epoch 1, sequence number 1"),
    ("0 c1 PASS 2\n0 c2 PASS 2\n", "line 2: out of order after epoch 0, sequence number 2"),
    ("-1 c1 PASS 1\n", "line 1: out of order after epoch 0, sequence number 0"),
])
def test_history_load_names_file_line_and_field(tmp_path, text, message):
    path = tmp_path / "history.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        History.load(path)
    assert str(excinfo.value) == f"history {path} {message}"


def test_run_plan_file_round_trip(tmp_path):
    cases = [_case("t1", "a"), _case("t2", "b", "f1"), _case("t2", "c", "f2"),
             TestCase(case_id=case_digest("t3", 4, "f3"),
                      target=InjectionTarget(trace_id="t3", span_position=4,
                                             endpoint=Endpoint("MQ", "kafka", "send"),
                                             service="other",
                                             rationale="dual_write_secondary"),
                      fault_id="f3")]
    plan = greedy_batch(cases)
    path = tmp_path / "runplan.txt"
    save_run_plan(plan, path)
    assert load_run_plan(path) == plan


def test_history_save_interrupted_keeps_earlier_file(tmp_path):
    path = tmp_path / "history.txt"
    history = History()
    history.record_outcome("c1", "PASS")
    history.save(path)
    before = path.read_bytes()

    class Unprintable:
        def __format__(self, spec):
            raise RuntimeError("write interrupted")

    history.record_outcome("c2", "PASS")
    history._records.append((0, Unprintable(), "PASS", 99))
    with pytest.raises(RuntimeError):
        history.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["history.txt"]
