"""Run batching and execution history.

System startup dominates test cost, so tests are batched: a greedy loop
repeatedly picks the trace whose coverage adds the most not-yet-covered
(endpoint, service) pairs, and every pending case that trace can host joins
its run (a case is hostable wherever its coverage unit occurs, since a run
replays one trace while arming the case's service/endpoint/fault). History
then keeps campaigns from re-executing tests that already passed in the
current epoch; failed tests are retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import read_lines, write_lines
from .planner import format_case_line, parse_case_line

VERDICT_PASS = "PASS"
HISTORY_RESET_MARKER = "-"


def coverage_unit(case) -> tuple:
    return (case.target.endpoint, case.target.service)


@dataclass
class Run:
    trace_id: str
    cases: list


@dataclass
class RunPlan:
    runs: list = field(default_factory=list)


def greedy_batch(cases: list) -> RunPlan:
    """Greedy endpoint-coverage batching.

    Each pick takes the trace whose coverage holds the most units with a
    pending case (a picked trace takes every pending case of its units, so
    no pending unit is covered yet); ties break on more pending hostable
    cases, then trace_id. A run keeps its cases in input order. Every input
    case lands in exactly one run, so no cases give no runs; run count never
    exceeds trace count.
    """
    trace_coverage = {}
    pending = {}  # coverage unit -> input positions of its pending cases
    for index, case in enumerate(cases):
        unit = coverage_unit(case)
        trace_coverage.setdefault(case.target.trace_id, set()).add(unit)
        pending.setdefault(unit, []).append(index)
    candidates = sorted(trace_coverage.items())

    runs = []
    while pending:
        best_key = None
        for trace_id, coverage in candidates:
            units = [unit for unit in coverage if unit in pending]
            if not units:
                continue
            key = (-len(units), -sum(len(pending[unit]) for unit in units), trace_id)
            if best_key is None or key < best_key:
                best_key, best_units = key, units
        assert best_key is not None  # every case is hostable by its own trace
        positions = sorted(index for unit in best_units for index in pending.pop(unit))
        runs.append(Run(trace_id=best_key[2], cases=[cases[i] for i in positions]))
    return RunPlan(runs=runs)


@dataclass
class History:
    """Executed-case ledger; record-then-query consistent, last write wins."""

    executed: dict = field(default_factory=dict)  # case_id -> verdict (current epoch)
    epoch: int = 0
    _seq: int = 0
    _records: list = field(default_factory=list)  # (epoch, case_id, verdict, seq)

    def record_outcome(self, case_id: str, verdict: str) -> None:
        self._seq += 1
        self.executed[case_id] = verdict
        self._records.append((self.epoch, case_id, verdict, self._seq))

    def reset(self) -> None:
        self._seq += 1
        self.executed = {}
        self.epoch += 1
        self._records.append((self.epoch, HISTORY_RESET_MARKER, "RESET", self._seq))

    def passed(self, case_id: str) -> bool:
        return self.executed.get(case_id) == VERDICT_PASS

    def save(self, path) -> None:
        write_lines(path, (f"{epoch} {case_id} {verdict} {seq}"
                           for epoch, case_id, verdict, seq in self._records))

    @classmethod
    def load(cls, path) -> "History":
        history = cls()
        for where, line in read_lines(path, "history"):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{where}: expected 4 fields")
            epoch = _int(where, "epoch", parts[0])
            case_id, verdict = parts[1], parts[2]
            seq = _int(where, "sequence number", parts[3])
            if epoch < history.epoch or seq <= history._seq:  # after (0, 0) on line 1
                raise ValueError(f"{where}: out of order after epoch {history.epoch}, "
                                 f"sequence number {history._seq}")
            if epoch > history.epoch:
                history.epoch = epoch
                history.executed = {}
            if case_id != HISTORY_RESET_MARKER:
                history.executed[case_id] = verdict
            history._records.append((epoch, case_id, verdict, seq))
            history._seq = seq
        return history


def _int(where: str, name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: {name} {text!r} is not an integer") from None


def filter_history(cases: list, history: History) -> list:
    """The cases still to run: all but those that PASSed in the current epoch."""
    return [c for c in cases if not history.passed(c.case_id)]


def save_run_plan(plan: RunPlan, path) -> None:
    def lines():
        for index, run in enumerate(plan.runs):
            yield f"run {index} trace={run.trace_id} cases={len(run.cases)}"
            for case in run.cases:
                yield f"  {format_case_line(case)}"

    write_lines(path, lines())


def load_run_plan(path) -> RunPlan:
    """The runs of a run-plan file. Each run header's `cases=` count must
    match the case lines under it, so a file cut inside a run is rejected,
    and no case ID may be listed twice."""
    headed = []  # (where, cases=, Run) of each run header
    case_ids = set()
    for where, line in read_lines(path, "run-plan"):
        if line.startswith("run "):
            fields = dict(part.split("=", 1) for part in line.split()[2:] if "=" in part)
            for key in ("trace", "cases"):
                if key not in fields:
                    raise ValueError(f"{where}: run header without {key}=")
            headed.append((where, _int(where, "cases=", fields["cases"]),
                           Run(trace_id=fields["trace"], cases=[])))
            continue
        if not headed:
            raise ValueError(f"{where}: case before any run header")
        case = parse_case_line(line, where)
        if case.case_id in case_ids:
            raise ValueError(f"{where}: repeated case_id {case.case_id!r}")
        case_ids.add(case.case_id)
        headed[-1][2].cases.append(case)
    for where, count, run in headed:
        if len(run.cases) != count:
            raise ValueError(f"{where}: run header says cases={count}, but "
                             f"{len(run.cases)} case lines follow it")
    return RunPlan(runs=[run for _where, _count, run in headed])
