"""The `analyze` and `plan` stages, and a replay check of the templates.

`analyze_corpus` clusters, scores, ranks and templates a corpus;
`plan_campaign` selects the interfaces and plans their cases. The `run` stage
is `executor.run_batch` on the run plan that `scheduler.greedy_batch` makes.
Selection is history-aware: ranked interfaces whose every case already passed
in the current epoch are skipped, so successive small-K campaigns
progressively explore new interfaces instead of re-testing passed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .aggregation import cluster_interfaces
from .faults import FaultCatalog
from .model import Corpus
from .planner import PlanConfig, plan_targets
from .scheduler import History, filter_history
from .selection import ComplexityWeights, score_corpus, select_top_k
from .sim.engine import System
from .sim.topology import TopologySpec
from .templating import (ManualVariableRegistry, SequentialIdSource,
                         build_template, instantiate)

REPLAY_ATTEMPTS = 3


@dataclass
class Analysis:
    corpus: Corpus
    clusters: list
    scores: dict                 # trace_id -> complexity score
    ranked: list                 # SelectedInterface, best-first, all interfaces
    templates: dict              # interface_id -> TraceTemplate


def analyze_corpus(corpus: Corpus, weights: Optional[ComplexityWeights] = None,
                   registry: Optional[ManualVariableRegistry] = None) -> Analysis:
    """Aggregation, scoring, full ranking, and templates for every cluster."""
    registry = registry or ManualVariableRegistry()
    clusters = cluster_interfaces(corpus)
    scores = score_corpus(corpus, weights)
    ranked = select_top_k(clusters, scores, k=len(clusters))
    by_id = {t.trace_id: t for t in corpus.traces}
    window = (corpus.meta.window_start_us, corpus.meta.window_end_us)
    templates = {}
    for cluster in clusters:
        members = [by_id[tid] for tid in cluster.member_trace_ids]
        templates[cluster.interface_id] = build_template(
            members, registry, interface_id=cluster.interface_id,
            window=window, scores=scores)
    return Analysis(corpus=corpus, clusters=clusters, scores=scores,
                    ranked=ranked, templates=templates)


def resolve_k(k, available: int) -> int:
    if k in (None, "all"):
        return available
    k = int(k)
    return min(k, available)


def plan_campaign(ranked: list, corpus: Corpus, catalog: FaultCatalog, k,
                  plan_config: PlanConfig,
                  history: Optional[History] = None) -> tuple:
    """Select the first K ranked interfaces that have a case not passed in
    the current epoch, and plan those cases.

    An interface with nothing to test, or whose every case passed, is passed
    over; no history means an empty one.
    """
    history = history or History()
    traces = {t.trace_id: t for t in corpus.traces}
    for s in ranked:
        if s.trace_id not in traces:
            raise ValueError(f"selection names trace {s.trace_id!r} for interface "
                             f"{s.interface_id}, which the corpus does not hold")
    k = resolve_k(k, len(ranked))
    selected = []
    cases = []
    for candidate in ranked:
        if len(selected) >= k:
            break
        pending = filter_history(plan_targets(
            [(candidate.interface_id, traces[candidate.trace_id])],
            corpus, catalog, plan_config), history)
        if pending:
            selected.append(candidate)
            cases.extend(pending)
    return selected, cases


@dataclass
class ReplayCheck:
    interface_ok: dict = field(default_factory=dict)  # interface_id -> bool

    @property
    def success_fraction(self) -> float:
        if not self.interface_ok:
            return 0.0
        return sum(self.interface_ok.values()) / len(self.interface_ok)


def replay_check(topology: TopologySpec, analysis: Analysis,
                 seed: int = 0) -> ReplayCheck:
    """Instantiate each interface's template against a healthy system.

    The system clock is advanced beyond the recording window plus skew first,
    so un-templated time-sensitive values are genuinely stale; repeated
    attempts expose un-templated single-use tokens.
    """
    system = System(topology, seed)
    horizon = (analysis.corpus.meta.window_end_us
               + 2 * topology.validation_skew_us)
    system.run_until(max(horizon, system.boot_complete_us))
    ids = SequentialIdSource(f"rc{seed % 1_000_000:06d}")
    check = ReplayCheck()
    for interface_id in sorted(analysis.templates):
        template = analysis.templates[interface_id]
        ok = True
        for _ in range(REPLAY_ATTEMPTS):
            request = instantiate(template, system.now_us, ids)
            response, _trace = system.submit_request(request)
            if not response.ok:
                ok = False
                break
        check.interface_ok[interface_id] = ok
    return check
