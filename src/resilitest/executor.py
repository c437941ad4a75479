"""Three-phase test execution and the multi-level verification oracle.

A run boots a fresh simulator, replays its trace's template for a no-fault
startup phase, then executes its batched cases sequentially: arm the case's
fault for the injection phase, disarm for the recovery phase, and verdict
the collected metrics. The oracle checks entry metrics against phase-based
criteria and, at the granular level, the armed endpoint's hit and failure
counters plus the downstream effect (lost writes, publishes left in the
outbox). Fail-fast: the first non-PASS verdict halts the run and the
remaining cases are rescheduled onto fresh systems.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Optional

from .faults import FaultCatalog
from .model import (COUNT, NUMBER, OBJECT, STRING, Endpoint, check_fields,
                    check_kind, dumps_canonical, read_records, write_lines)
from .scheduler import (VERDICT_PASS, History, Run, RunPlan, filter_history,
                        greedy_batch)
from .sim.engine import PhaseMetrics, System, replay_traffic
from .sim.topology import TopologySpec
from .templating import SequentialIdSource, TraceTemplate, instantiate

VERDICT_NO_RECOVERY = "FAIL_NO_RECOVERY"
VERDICT_SILENT = "FAIL_SILENT"
VERDICT_NO_IMPACT = "FAIL_NO_IMPACT"
VERDICT_STARTUP = "STARTUP_FAILURE"
VERDICTS = (VERDICT_PASS, VERDICT_NO_RECOVERY, VERDICT_SILENT,
            VERDICT_NO_IMPACT, VERDICT_STARTUP)
FAIL_VERDICTS = (VERDICT_NO_RECOVERY, VERDICT_SILENT, VERDICT_NO_IMPACT)

SECOND_US = 1_000_000


class ExecutorError(ValueError):
    pass


@dataclass(frozen=True)
class PhaseConfig:
    startup_us: int = 60 * SECOND_US
    inject_us: int = 60 * SECOND_US
    recover_us: int = 60 * SECOND_US
    rate_per_sec: int = 10

    def __post_init__(self):
        if min(self.startup_us, self.inject_us, self.recover_us) <= 0:
            raise ExecutorError("phase durations must be positive")
        if self.rate_per_sec <= 0:
            raise ExecutorError("replay rate must be positive")


@dataclass(frozen=True)
class EffectiveCriteria:
    startup_min: float
    inject_max: float
    recover_min: float

    def __post_init__(self):
        if not (0.0 <= self.inject_max < self.recover_min
                <= self.startup_min <= 1.0):
            raise ExecutorError(
                f"criteria must satisfy 0 <= inject_max < recover_min <= "
                f"startup_min <= 1, got ({self.startup_min}, {self.inject_max}, "
                f"{self.recover_min})")


THRESHOLDS = dict.fromkeys(
    ("startup_min_success", "inject_max_success", "recover_min_success"), NUMBER)


@dataclass
class OracleCriteria:
    startup_min_success: float = 1.0
    inject_max_success: float = 0.30
    recover_min_success: float = 0.80
    per_interface: dict = field(default_factory=dict)  # interface_id -> overrides

    def resolve(self, interface_id: str) -> EffectiveCriteria:
        overrides = self.per_interface.get(interface_id, {})
        return EffectiveCriteria(
            startup_min=overrides.get("startup_min_success", self.startup_min_success),
            inject_max=overrides.get("inject_max_success", self.inject_max_success),
            recover_min=overrides.get("recover_min_success", self.recover_min_success),
        )

    @classmethod
    def load(cls, path) -> "OracleCriteria":
        """Read a criteria file: a JSON object with any of the three global
        keys and an `interfaces` map from interface ID to an object of
        overrides of those keys. Every resolved set is checked here, so a bad
        file fails before any case runs."""
        where = f"criteria {path}"
        with open(path, "r", encoding="utf-8") as fh:
            try:
                rec = check_fields(json.load(fh), {}, {**THRESHOLDS, "interfaces": OBJECT},
                                   closed=True)
            except ValueError as exc:
                raise ExecutorError(f"{where}: {exc}") from None
        overrides = rec.get("interfaces", {})
        criteria = cls(per_interface=dict(overrides),
                       **{k: rec[k] for k in THRESHOLDS if k in rec})
        for interface_id in (None, *overrides):  # None resolves the globals
            label = "globals" if interface_id is None else f"interface {interface_id}"
            try:
                check_fields(overrides.get(interface_id, {}), {}, THRESHOLDS, closed=True)
                criteria.resolve(interface_id)
            except ValueError as exc:
                raise ExecutorError(f"{where}: {label}: {exc}") from None
        return criteria


@dataclass
class TestRun:
    __test__ = False  # not a pytest class, despite the name

    case_id: str
    trace_id: str       # the case's own trace
    host_trace_id: str  # the trace whose template the run replayed
    interface_id: str   # interface of the host trace (criteria context)
    service: str
    endpoint: Endpoint
    fault_id: str
    rationale: str
    verdict: str
    startup: Optional[PhaseMetrics] = None
    inject: Optional[PhaseMetrics] = None
    recover: Optional[PhaseMetrics] = None
    injection_hits: int = 0
    inject_endpoint_failures: int = 0
    recover_endpoint_failures: int = 0
    downstream_effect_ok: bool = True


def _rate(metrics: Optional[PhaseMetrics]) -> float:
    if metrics is None or metrics.success_rate is None:
        return 0.0
    return metrics.success_rate


def evaluate(startup: Optional[PhaseMetrics], inject: Optional[PhaseMetrics],
             recover: Optional[PhaseMetrics], injection_hits: int,
             inject_endpoint_failures: int, recover_endpoint_failures: int,
             downstream_effect_ok: bool, criteria: EffectiveCriteria,
             entry_only: bool = False) -> str:
    """Pure verdict function over phase metrics and granular assertions.

    Zero-sample phases count as 0.0 success (nothing demonstrated). With
    entry_only set, the endpoint-level assertions (impact, silent failure,
    residual endpoint failures) are skipped, which is exactly the naive
    oracle the granular assertion points exist to improve on.
    """
    if inject is None or recover is None:
        raise ExecutorError("evaluation requires all three phases")
    if _rate(startup) < criteria.startup_min:
        return VERDICT_STARTUP
    if not entry_only and injection_hits == 0:
        return VERDICT_NO_IMPACT
    if (not entry_only and _rate(inject) > criteria.inject_max
            and inject_endpoint_failures > 0 and not downstream_effect_ok):
        return VERDICT_SILENT
    if _rate(recover) < criteria.recover_min or (
            not entry_only and recover_endpoint_failures > 0):
        return VERDICT_NO_RECOVERY
    return VERDICT_PASS


def run_seed_for(campaign_seed: int, trace_id: str, wave: int) -> int:
    text = f"{campaign_seed}:{trace_id}:{wave}"
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16)


def execute_run(run: Run, topology: TopologySpec, template: TraceTemplate,
                catalog: FaultCatalog, phases: PhaseConfig,
                criteria: OracleCriteria, run_seed: int,
                entry_only: bool = False) -> tuple:
    """One fresh system, one shared startup, batched cases with fail-fast.

    Returns (list of TestRun, deferred cases for rescheduling).
    """
    system = System(topology, run_seed)
    ids = SequentialIdSource(f"rp{run_seed % 1_000_000:06d}")

    def make_request(at_us: int):
        return instantiate(template, at_us, ids)

    effective = criteria.resolve(template.interface_id)
    cursor = system.boot_complete_us
    startup_window = replay_traffic(system, make_request, phases.rate_per_sec,
                                    cursor, phases.startup_us)
    cursor += phases.startup_us
    startup = system.entry_metrics(startup_window)
    startup_ok = _rate(startup) >= effective.startup_min

    results = []
    deferred = []
    for position, case in enumerate(run.cases):
        base = TestRun(
            case_id=case.case_id, trace_id=case.target.trace_id,
            host_trace_id=run.trace_id, interface_id=template.interface_id,
            service=case.target.service, endpoint=case.target.endpoint,
            fault_id=case.fault_id, rationale=case.target.rationale,
            verdict=VERDICT_STARTUP, startup=startup)
        if not startup_ok:
            results.append(base)
            deferred.extend(run.cases[position + 1:])
            break

        system.forget_before(cursor)  # only this case's windows are read from here
        fault = catalog.get(case.fault_id)
        armed = system.arm_fault(case.target.service, case.target.endpoint, fault)
        inject_window = replay_traffic(system, make_request, phases.rate_per_sec,
                                       cursor, phases.inject_us)
        cursor += phases.inject_us
        system.disarm_fault(case.target.service, case.target.endpoint)
        recover_window = replay_traffic(system, make_request, phases.rate_per_sec,
                                        cursor, phases.recover_us)
        cursor += phases.recover_us

        case_window = (inject_window[0], recover_window[1])
        base.inject = system.entry_metrics(inject_window)
        base.recover = system.entry_metrics(recover_window)
        base.injection_hits = armed.hits_in(inject_window)
        base.inject_endpoint_failures = system.endpoint_stats(
            case.target.service, case.target.endpoint, inject_window)["failures"]
        base.recover_endpoint_failures = system.endpoint_stats(
            case.target.service, case.target.endpoint, recover_window)["failures"]
        base.downstream_effect_ok = (system.losses_in(case_window) == 0
                                     and system.outbox_pending_from(case_window) == 0)
        base.verdict = evaluate(
            base.startup, base.inject, base.recover, base.injection_hits,
            base.inject_endpoint_failures, base.recover_endpoint_failures,
            base.downstream_effect_ok, effective, entry_only=entry_only)
        results.append(base)
        if base.verdict != VERDICT_PASS:
            deferred.extend(run.cases[position + 1:])
            break
    system.close()
    return results, deferred


@dataclass
class CampaignResult:
    test_runs: list
    startup_count: int
    initial_runs: int

    @property
    def reschedules(self) -> int:
        return self.startup_count - self.initial_runs

    def verdict_counts(self) -> dict:
        counts = {v: 0 for v in VERDICTS}
        for tr in self.test_runs:
            counts[tr.verdict] += 1
        return counts

    def coverage(self) -> set:
        return {(tr.endpoint, tr.service) for tr in self.test_runs}


def run_batch(plan: RunPlan, topology: TopologySpec, templates: list,
              catalog: FaultCatalog, phases: PhaseConfig,
              criteria: OracleCriteria, seed: int = 0,
              entry_only: bool = False,
              history: Optional[History] = None) -> CampaignResult:
    """Execute every planned case not passed in the history's current epoch
    exactly once, rescheduling deferred cases from fail-fast halts into fresh
    greedily-batched runs, and record every verdict in the history (no
    history means an empty one). Passed cases, and the runs they leave
    empty, are dropped before wave 0."""
    history = history or History()
    by_trace = {t.trace_id: t for t in templates}
    results = []
    startup_count = 0
    wave = 0
    queue = []
    for run in plan.runs:
        pending = filter_history(run.cases, history)
        if pending:
            queue.append(Run(trace_id=run.trace_id, cases=pending))
    initial_runs = len(queue)
    for run in queue:  # a deferred case is re-hosted on its own trace
        for trace_id in (run.trace_id, *(case.target.trace_id for case in run.cases)):
            if trace_id not in by_trace:
                raise ExecutorError(f"no template for trace {trace_id}")
    while queue:  # the runs of a wave share nothing
        outcomes = _run_wave(queue, lambda run: execute_run(
            run, topology, by_trace[run.trace_id], catalog, phases, criteria,
            run_seed_for(seed, run.trace_id, wave), entry_only=entry_only))
        results.extend(tr for run_results, _deferred in outcomes for tr in run_results)
        startup_count += len(queue)
        queue = greedy_batch([case for _results, deferred in outcomes for case in deferred]).runs
        wave += 1
    for tr in results:
        history.record_outcome(tr.case_id, tr.verdict)
    return CampaignResult(test_runs=results, startup_count=startup_count,
                          initial_runs=initial_runs)


def _run_wave(runs: list, work) -> list:
    """[work(run) for run in runs] on min(CPUs, runs) processes: the parent
    and children it forks, each taking the next position in the order of
    case count, largest first, from a four-byte token in one pipe. A child
    sends back {index: outcome or exception} and leaves through os._exit,
    never flushing the parent's stdio. As in serial, the lowest failing
    run's exception is raised; every child is reaped on every path."""
    order = sorted(range(len(runs)), key=lambda index: -len(runs[index].cases))
    token_read, token_write = os.pipe()

    def claim() -> int:
        position = int.from_bytes(os.read(token_read, 4), "little")
        os.write(token_write, (position + 1).to_bytes(4, "little"))
        return position

    def take(position: int) -> dict:
        taken = {}
        while position < len(order):
            index = order[position]
            try:
                taken[index] = work(runs[index])
            except Exception as exc:  # raised in run order once every run is done
                taken[index] = exc
            position = claim()
        return taken

    children = {}  # pid -> read end of the pipe its outcomes come back on
    try:
        os.write(token_write, (1).to_bytes(4, "little"))  # the parent takes position 0
        for _ in range(min(len(os.sched_getaffinity(0)), len(runs)) - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with open(write_end, "wb") as fh:
                        pickle.dump(take(claim()), fh)
                    os._exit(0)
                finally:  # reached only on an error
                    os._exit(70)
            os.close(write_end)
            children[pid] = read_end
        outcomes = take(0)
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if status != 0:
                raise ExecutorError(f"run worker process {pid} exited with status "
                                    f"{status} before sending its results")
            outcomes.update(pickle.loads(data))
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for end in (token_read, token_write, *children.values()):
            os.close(end)
    ordered = [outcomes[index] for index in range(len(runs))]
    for outcome in ordered:
        if isinstance(outcome, Exception):
            raise outcome
    return ordered


# --- report file -------------------------------------------------------------

def test_run_to_record(tr: TestRun) -> dict:
    return {
        "type": "test_run",
        "case_id": tr.case_id,
        "trace_id": tr.trace_id,
        "host_trace_id": tr.host_trace_id,
        "interface_id": tr.interface_id,
        "service": tr.service,
        "endpoint": tr.endpoint.triple(),
        "fault_id": tr.fault_id,
        "rationale": tr.rationale,
        "verdict": tr.verdict,
        "phases": {
            "startup": tr.startup.to_dict() if tr.startup else None,
            "inject": tr.inject.to_dict() if tr.inject else None,
            "recover": tr.recover.to_dict() if tr.recover else None,
        },
        "assertions": {
            "injection_hits": tr.injection_hits,
            "inject_endpoint_failures": tr.inject_endpoint_failures,
            "recover_endpoint_failures": tr.recover_endpoint_failures,
            "downstream_effect_ok": tr.downstream_effect_ok,
        },
    }


def save_report(result: CampaignResult, path, config: Optional[dict] = None) -> None:
    def lines():
        for tr in result.test_runs:
            yield dumps_canonical(test_run_to_record(tr))
        yield dumps_canonical({
            "type": "summary",
            "cases": len(result.test_runs),
            "verdicts": result.verdict_counts(),
            "endpoint_coverage": len(result.coverage()),
            "startup_count": result.startup_count,
            "initial_runs": result.initial_runs,
            "reschedules": result.reschedules,
            "config": config or {},
        })

    write_lines(path, lines())


REPORT_RUN_FIELDS = dict.fromkeys(
    ("case_id", "service", "endpoint", "fault_id", "verdict"), STRING)
REPORT_SUMMARY_FIELDS = {"cases": COUNT, "endpoint_coverage": COUNT, "startup_count": COUNT,
                         "reschedules": COUNT, "verdicts": OBJECT}


def load_report(path) -> tuple:
    """(test-run records, summary record) of a report file, as dicts.

    Checks the fields `resilitest report` reads: the five string fields of
    each test run, and the summary's counters, verdict counts and config. A
    report holds one summary, whose `cases` counts its test runs, and no case
    ID twice.
    """
    runs = {}  # case_id -> test-run record
    summary = summary_where = None
    for where, rec in read_records(path, "report", {"type": STRING}):
        try:
            if rec["type"] == "test_run":
                check_fields(rec, REPORT_RUN_FIELDS)
                if rec["case_id"] in runs:
                    raise ValueError(f"repeated case_id {rec['case_id']!r}")
                runs[rec["case_id"]] = rec
            elif rec["type"] != "summary":
                raise ValueError(f"type must be 'test_run' or 'summary', got {rec['type']!r}")
            elif summary is not None:
                raise ValueError("repeated type 'summary'")
            else:
                summary = check_fields(rec, REPORT_SUMMARY_FIELDS, {"config": OBJECT})
                summary_where = where
                for verdict, count in rec["verdicts"].items():
                    check_kind(f"verdicts {verdict}", count, COUNT)
        except ValueError as exc:
            raise ExecutorError(f"{where}: {exc}") from None
    if summary is None:
        raise ExecutorError(f"report {path} has no summary record")
    if summary["cases"] != len(runs):
        raise ExecutorError(f"{summary_where}: cases is {summary['cases']}, but the "
                            f"report holds {len(runs)} test_run records")
    return list(runs.values()), summary
