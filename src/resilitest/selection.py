"""Trace-complexity scoring and two-level top-K interface selection.

Complexity is a weighted combination of three min-max-normalized factors:
span count, component diversity (unique services plus unique
(component, framework) pairs), and end-to-end duration of the root span.
Interfaces are ranked by the mean score of their member traces; the top-K
interfaces each contribute their single highest-scoring trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (NUMBER, STRING, Corpus, dumps_canonical, read_records,
                    write_lines)

WEIGHT_TOLERANCE = 1e-9


class SelectionError(ValueError):
    pass


@dataclass(frozen=True)
class ComplexityWeights:
    w_len: float = 1.0 / 3.0
    w_div: float = 1.0 / 3.0
    w_dur: float = 1.0 / 3.0

    def __post_init__(self):
        for w in (self.w_len, self.w_div, self.w_dur):
            if not 0 <= w <= 1:  # false for NaN too
                raise SelectionError(f"weight {w} outside [0, 1]")
        total = self.w_len + self.w_div + self.w_dur
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise SelectionError(f"weights must sum to 1, got {total}")


@dataclass(frozen=True)
class CorpusNorms:
    len_min: float
    len_max: float
    div_min: float
    div_max: float
    dur_min: float
    dur_max: float


def root_duration(trace) -> int:
    return trace.root_span().duration_us


def norms_of(span_counts, diversities, durations) -> CorpusNorms:
    """The norms of three parallel sequences, one number of each trace."""
    if not span_counts:
        raise SelectionError("cannot compute norms for an empty corpus")
    return CorpusNorms(min(span_counts), max(span_counts), min(diversities),
                       max(diversities), min(durations), max(durations))


def compute_norms(corpus: Corpus) -> CorpusNorms:
    traces = corpus.traces
    return norms_of([t.span_count for t in traces], [t.diversity for t in traces],
                    [root_duration(t) for t in traces])


def _norm(value: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0  # degenerate factor: every trace identical on this axis
    return (value - lo) / (hi - lo)


def complexity(span_count: int, diversity: int, duration_us: int,
               weights: ComplexityWeights, norms: CorpusNorms) -> float:
    """Score of a trace of these factors under corpus-wide `norms`."""
    return (weights.w_len * _norm(span_count, norms.len_min, norms.len_max)
            + weights.w_div * _norm(diversity, norms.div_min, norms.div_max)
            + weights.w_dur * _norm(duration_us, norms.dur_min, norms.dur_max))


def trace_complexity(trace, weights: ComplexityWeights,
                     norms: CorpusNorms) -> float:
    return complexity(trace.span_count, trace.diversity, root_duration(trace),
                      weights, norms)


def score_corpus(corpus: Corpus, weights: ComplexityWeights = None) -> dict:
    """Score every trace in one pass; returns trace_id -> score in [0, 1]."""
    weights = weights or ComplexityWeights()
    norms = compute_norms(corpus)
    return {t.trace_id: trace_complexity(t, weights, norms) for t in corpus.traces}


def interface_score(cluster, per_trace_scores: dict) -> float:
    """Aggregate interface complexity: arithmetic mean over member traces."""
    members = cluster.member_trace_ids
    if not members:
        raise SelectionError(f"cluster {cluster.interface_id} has no members")
    return sum(per_trace_scores[tid] for tid in members) / len(members)


@dataclass(frozen=True)
class SelectedInterface:
    interface_id: str
    aggregate_score: float
    trace_id: str
    trace_score: float


def select_top_k(clusters: list, per_trace_scores: dict) -> list:
    """Every interface, best first by aggregate score, each with its
    representative: its highest-scoring member trace.

    Ties break by interface_id, the representative's ties by trace_id.
    `plan_campaign` takes its K interfaces from this ranking, in order.
    """
    ranked = []
    for cluster in clusters:
        aggregate = interface_score(cluster, per_trace_scores)
        best = min(cluster.member_trace_ids,
                   key=lambda tid: (-per_trace_scores[tid], tid))
        ranked.append(SelectedInterface(
            interface_id=cluster.interface_id,
            aggregate_score=aggregate,
            trace_id=best,
            trace_score=per_trace_scores[best],
        ))
    ranked.sort(key=lambda s: (-s.aggregate_score, s.interface_id))
    return ranked


SELECTION_FIELDS = {"interface_id": STRING, "aggregate_score": NUMBER,
                    "trace_id": STRING, "trace_score": NUMBER}


def load_selection_report(path) -> list:
    """The ranked records of a selection file; a record with a missing,
    mistyped or repeated field names the file and line."""
    return [SelectedInterface(**{key: rec[key] for key in SELECTION_FIELDS})
            for _where, rec in read_records(path, "selection", SELECTION_FIELDS,
                                            unique=("interface_id", "trace_id"))]


def save_selection_report(selected: list, corpus: Corpus, path) -> None:
    by_id = {t.trace_id: t for t in corpus.traces}

    def lines():
        for rank, sel in enumerate(selected, start=1):
            trace = by_id[sel.trace_id]
            yield dumps_canonical({
                "rank": rank,
                "interface_id": sel.interface_id,
                "aggregate_score": sel.aggregate_score,
                "trace_id": sel.trace_id,
                "trace_score": sel.trace_score,
                "factors": {
                    "span_count": trace.span_count,
                    "diversity": trace.diversity,
                    "root_duration_us": root_duration(trace),
                },
            })

    write_lines(path, lines())
