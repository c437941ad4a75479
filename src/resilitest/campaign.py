"""The `analyze` and `plan` stages, and a replay check of the templates.

`analyze_corpus` clusters, scores, ranks and templates a corpus;
`plan_campaign` selects the interfaces and plans their cases. The `run` stage
is `executor.run_batch` on the run plan that `scheduler.greedy_batch` makes.
Selection skips the cases that passed in earlier reports, and the ranked
interfaces left with none, so successive small-K campaigns progressively
explore new interfaces instead of re-testing passed ones.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from .aggregation import DrainTree, interface_digest
from .model import Corpus, CorpusMeta, RequestLineError
from .planner import PlanConfig, plan_targets
from .selection import ComplexityWeights, complexity, norms_of, select_top_k
from .sim.engine import System
from .sim.topology import TopologySpec
from .templating import (ManualVariableRegistry, MemberRoots, SequentialIdSource,
                         instantiate)

REPLAY_ATTEMPTS = 3


@dataclass
class Analysis:
    corpus: Corpus               # the corpus, or its representatives in rank order
    clusters: list
    scores: dict                 # trace_id -> complexity score
    ranked: list                 # SelectedInterface, best-first, all interfaces
    templates: dict              # interface_id -> TraceTemplate
    located: dict = field(default_factory=dict)  # representative -> its index in the corpus


class Analyzer:
    """The one pass of `analyze`: it clusters each trace fed to it, adds the
    root span to the leaf's MemberRoots and keeps only the trace's leaf and
    complexity factors, in arrays. `finish` scores, ranks and templates."""

    def __init__(self):
        self.tree = DrainTree()
        self.roots = defaultdict(MemberRoots)  # of each leaf of `tree`, by index
        self.leaf = array("l")  # of each trace, in corpus order
        self.factors = array("q")  # span count, diversity, root duration of each
        self.error = None  # the first RequestLineError; `finish` raises it

    def feed(self, traces: Iterable):
        """Add each trace of `traces`, then yield it."""
        for trace in traces:
            if self.error is None:
                root = trace.root_span()
                try:
                    leaf = self.tree.add(root.operation_name, trace.trace_id)
                except RequestLineError as exc:
                    self.error = exc
                else:
                    self.roots[leaf].add(root)
                    self.leaf.append(leaf)
                    self.factors.extend((trace.span_count, trace.diversity, root.duration_us))
            yield trace

    def _trace_ids(self):
        """Each trace's ID, in corpus order."""
        members = [iter(leaf.trace_ids) for leaf in self.tree.leaves]
        return (next(members[leaf]) for leaf in self.leaf)

    def finish(self, meta: CorpusMeta, trace_at: Callable, weights=None,
               registry=None) -> Analysis:
        """Aggregation, scoring, full ranking, and a template for every
        cluster, whose representative `trace_at` returns from its index in
        the corpus and its ID; the Analysis holds them, in rank order."""
        if self.error is not None:
            raise self.error
        columns = [self.factors[i::3] for i in range(3)]
        norms = norms_of(*columns)
        weights = weights or ComplexityWeights()
        scores = {trace_id: complexity(*factors, weights, norms)
                  for trace_id, *factors in zip(self._trace_ids(), *columns)}
        clusters = self.tree.clusters()
        ranked = select_top_k(clusters, scores)
        located = dict.fromkeys(s.trace_id for s in ranked)
        located.update((trace_id, i) for i, trace_id in enumerate(self._trace_ids())
                       if trace_id in located)
        leaf_of = {interface_digest(leaf.method, leaf.template): i
                   for i, leaf in enumerate(self.tree.leaves)}
        registry = registry or ManualVariableRegistry()
        bases, templates = [], {}
        for sel in ranked:
            bases.append(trace_at(located[sel.trace_id], sel.trace_id))
            templates[sel.interface_id] = self.roots[leaf_of[sel.interface_id]].template(
                bases[-1].root_span(), registry, sel.interface_id,
                (meta.window_start_us, meta.window_end_us), sel.trace_id)
        return Analysis(Corpus(bases, meta), clusters, scores, ranked, templates, located)


def analyze_corpus(corpus: Corpus, weights: Optional[ComplexityWeights] = None,
                   registry: Optional[ManualVariableRegistry] = None) -> Analysis:
    """Aggregation, scoring, full ranking, and templates for every cluster."""
    analyzer = Analyzer()
    for _trace in analyzer.feed(corpus.traces):
        pass
    return replace(analyzer.finish(corpus.meta, lambda i, _trace_id: corpus.traces[i],
                                   weights, registry), corpus=corpus)


def resolve_k(k, available: int) -> int:
    if k in (None, "all"):
        return available
    k = int(k)
    return min(k, available)


def plan_campaign(ranked: list, corpus: Corpus, catalog: dict, k,
                  plan_config: PlanConfig, passed: set = frozenset()) -> tuple:
    """Select the first K ranked interfaces that have a case whose ID is not
    in `passed`, and plan those cases.

    An interface with nothing to test, or whose every case passed, is passed
    over. `corpus` holds every ranked trace.
    """
    traces = {t.trace_id: t for t in corpus.traces}
    k = resolve_k(k, len(ranked))
    selected = []
    cases = []
    for candidate in ranked:
        if len(selected) >= k:
            break
        pending = [case for case in plan_targets([traces[candidate.trace_id]], corpus,
                                                 catalog, plan_config)
                   if case.case_id not in passed]
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
