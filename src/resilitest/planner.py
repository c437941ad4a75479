"""Fault-injection target planning over selected traces.

Every non-root span is a potential injection point, which explodes
combinatorially. The planner prunes: inject only at the last invocation of
each endpoint, drop consumers already covered by a producer edge, keep only
the secondary write of dual-write groups, and sample a bounded number of
services per endpoint. Survivors are cross-producted with applicable faults.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Optional

from .faults import FaultCatalog, faults_for_endpoint
from .model import WRITE_METHODS, Corpus, Endpoint, Trace, write_lines

RATIONALE_LAST = "last_invocation"
RATIONALE_PRODUCER = "producer"
RATIONALE_DUAL_SECONDARY = "dual_write_secondary"
RATIONALE_PLAIN = "plain"

KIND_PRODUCER_CONSUMER = "producer_consumer"
KIND_DUAL_WRITE = "dual_write"

MIN_TOKEN_LEN = 4
DEFAULT_N_SERVICES = 3


@dataclass(frozen=True)
class InjectionTarget:
    trace_id: str
    span_position: int
    endpoint: Endpoint
    service: str
    rationale: str = RATIONALE_PLAIN


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # not a pytest class, despite the name

    case_id: str
    target: InjectionTarget
    fault_id: str


@dataclass(frozen=True)
class DependencyEdge:
    kind: str
    shared_tokens: frozenset
    producer_position: Optional[int] = None
    consumer_position: Optional[int] = None
    write_positions: tuple = ()
    secondary_position: Optional[int] = None


@dataclass(frozen=True)
class PlanConfig:
    n_services: int = DEFAULT_N_SERVICES
    seed: int = 0


def case_digest(trace_id: str, span_position: int, fault_id: str) -> str:
    text = f"{trace_id}|{span_position}|{fault_id}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def extract_endpoints(trace: Trace) -> list:
    """(span_position, Endpoint) for every non-root span, in span order."""
    return [(i, s.endpoint) for i, s in enumerate(trace.spans)
            if s.span_id != trace.root]


def sample_services(corpus: Corpus, endpoint: Endpoint, n: int, seed: int) -> set:
    """Seeded pseudo-random sample of <= n distinct services invoking `endpoint`
    anywhere in the corpus; empty when the endpoint was never observed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    users = corpus.endpoint_users.get(endpoint, ())
    if len(users) <= n:
        return set(users)
    rng = random.Random(f"{seed}:{endpoint.triple()}")
    return set(rng.sample(users, n))


def last_invocation_targets(trace: Trace) -> list:
    """One target per distinct endpoint: the span at its final occurrence."""
    last = {}
    for pos, endpoint in extract_endpoints(trace):
        last[endpoint] = pos
    targets = [InjectionTarget(trace_id=trace.trace_id, span_position=pos,
                               endpoint=ep, service=trace.spans[pos].service,
                               rationale=RATIONALE_LAST)
               for ep, pos in last.items()]
    targets.sort(key=lambda t: t.span_position)
    return targets


def _payload_tokens(payload: dict) -> set:
    return {v for v in payload.values() if isinstance(v, str) and len(v) >= MIN_TOKEN_LEN}


def detect_producer_consumer(trace: Trace) -> list:
    """Edges (i -> j) where a response value of sibling span i flows verbatim
    into the request of later sibling span j issued by the same service."""
    edges = []
    spans = trace.spans
    for i in range(len(spans)):
        if spans[i].span_id == trace.root:
            continue
        produced = _payload_tokens(spans[i].response_payload)
        if not produced:
            continue
        for j in range(i + 1, len(spans)):
            if spans[j].span_id == trace.root:
                continue
            if spans[j].parent_id != spans[i].parent_id:
                continue
            if spans[j].service != spans[i].service:
                continue
            shared = produced & _payload_tokens(spans[j].request_payload)
            if shared:
                edges.append(DependencyEdge(
                    kind=KIND_PRODUCER_CONSUMER,
                    shared_tokens=frozenset(shared),
                    producer_position=i,
                    consumer_position=j,
                ))
    return edges


def detect_dual_write(trace: Trace) -> list:
    """Groups of >= 2 write-class spans of one service that share a request
    token and target different components; the later write is the secondary."""
    writes = [(i, s) for i, s in enumerate(trace.spans)
              if s.span_id != trace.root and s.endpoint.method in WRITE_METHODS]
    groups = {}  # (service, positions tuple) -> set of shared tokens
    token_map = {}  # (service, token) -> positions
    for i, span in writes:
        for token in _payload_tokens(span.request_payload):
            token_map.setdefault((span.service, token), []).append(i)
    for (service, token), positions in token_map.items():
        if len(positions) < 2:
            continue
        components = {trace.spans[p].endpoint.component for p in positions}
        if len(components) < 2:
            continue
        key = (service, tuple(sorted(positions)))
        groups.setdefault(key, set()).add(token)

    edges = []
    for (service, positions), tokens in sorted(groups.items()):
        edges.append(DependencyEdge(
            kind=KIND_DUAL_WRITE,
            shared_tokens=frozenset(tokens),
            write_positions=positions,
            secondary_position=positions[-1],
        ))
    return edges


def plan_trace_targets(trace: Trace) -> list:
    """Rules 1-3 for one trace: last-invocation targets, minus consumers
    covered by a producer edge, minus non-secondary dual writes."""
    targets = last_invocation_targets(trace)

    producer_edges = detect_producer_consumer(trace)
    consumer_positions = {e.consumer_position for e in producer_edges}
    producer_positions = {e.producer_position for e in producer_edges}
    targets = [t for t in targets if t.span_position not in consumer_positions]

    dual_edges = detect_dual_write(trace)
    dropped = set()
    secondary_positions = set()
    for edge in dual_edges:
        secondary_positions.add(edge.secondary_position)
        dropped |= set(edge.write_positions) - {edge.secondary_position}
    targets = [t for t in targets if t.span_position not in dropped]

    relabeled = []
    for t in targets:
        if t.span_position in producer_positions:
            relabeled.append(replace(t, rationale=RATIONALE_PRODUCER))
        elif t.span_position in secondary_positions:
            relabeled.append(replace(t, rationale=RATIONALE_DUAL_SECONDARY))
        else:
            relabeled.append(t)
    return relabeled


def plan_targets(selected: list, corpus: Corpus, catalog: FaultCatalog,
                 config: PlanConfig = PlanConfig()) -> list:
    """Full pruning pipeline over selected (interface_id, Trace) pairs,
    cross-producted with applicable faults. Deterministic under a fixed seed."""
    cases = []
    for _interface_id, trace in selected:
        for target in plan_trace_targets(trace):
            if target.service not in sample_services(
                    corpus, target.endpoint, config.n_services, config.seed):
                continue
            for fault in faults_for_endpoint(catalog, target.endpoint):
                cases.append(TestCase(
                    case_id=case_digest(trace.trace_id, target.span_position, fault.fault_id),
                    target=target,
                    fault_id=fault.fault_id,
                ))
    return cases


def format_case_line(case: TestCase) -> str:
    """The 7-field case line: `case_id trace_id pos C:F:M service fault_id rationale`."""
    t = case.target
    return (f"{case.case_id} {t.trace_id} {t.span_position} "
            f"{t.endpoint.triple()} {t.service} {case.fault_id} {t.rationale}")


def parse_case_line(line: str, where: str) -> TestCase:
    """Inverse of format_case_line; `where` prefixes the error message."""
    parts = line.split()
    if len(parts) != 7:
        raise ValueError(f"{where}: expected 7 fields")
    case_id, trace_id, pos, triple, service, fault_id, rationale = parts
    endpoint = triple.split(":")
    if len(endpoint) != 3:
        raise ValueError(f"{where}: endpoint {triple!r} is not component:framework:method")
    if not pos.isdecimal():
        raise ValueError(f"{where}: span position {pos!r} is not an integer")
    return TestCase(
        case_id=case_id,
        target=InjectionTarget(trace_id=trace_id, span_position=int(pos),
                               endpoint=Endpoint(*endpoint),
                               service=service, rationale=rationale),
        fault_id=fault_id,
    )


def save_plan(cases: list, path) -> None:
    write_lines(path, map(format_case_line, cases))
