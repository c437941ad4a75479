"""Fault-injection target planning over selected traces.

Every non-root span is a potential injection point, which explodes
combinatorially. One pass over a trace's span positions keeps the last
invocation of each endpoint (rule 1), minus consumers of producer-consumer
pairs (rule 2) and non-secondary writes of dual-write groups (rule 3). Pruning
wins; a kept target is a `producer`, else a `dual_write_secondary`, else a
`last_invocation`. Survivors in a seeded sample of each endpoint's services
are cross-producted with applicable faults.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .faults import faults_for_endpoint
from .model import WRITE_METHODS, Corpus, Endpoint, Trace, write_lines

RATIONALE_LAST = "last_invocation"
RATIONALE_PRODUCER = "producer"
RATIONALE_DUAL_SECONDARY = "dual_write_secondary"

MIN_TOKEN_LEN = 4
DEFAULT_N_SERVICES = 3


@dataclass(frozen=True)
class InjectionTarget:
    trace_id: str
    span_position: int
    endpoint: Endpoint
    service: str
    rationale: str


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # not a pytest class, despite the name

    case_id: str
    target: InjectionTarget
    fault_id: str


@dataclass(frozen=True)
class PlanConfig:
    n_services: int = DEFAULT_N_SERVICES
    seed: int = 0


def case_digest(trace_id: str, span_position: int, fault_id: str) -> str:
    text = f"{trace_id}|{span_position}|{fault_id}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


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


def _payload_tokens(payload: dict) -> set:
    return {v for v in payload.values() if isinstance(v, str) and len(v) >= MIN_TOKEN_LEN}


def producer_consumer_pairs(trace: Trace) -> set:
    """Span positions (i, j) where a response value of sibling span i flows
    verbatim into the request of later sibling span j issued by the same
    service."""
    spans = [(i, s) for i, s in enumerate(trace.spans) if s.span_id != trace.root]
    pairs = set()
    for k, (i, producer) in enumerate(spans):
        produced = _payload_tokens(producer.response_payload)
        for j, consumer in spans[k + 1:]:
            if (produced and consumer.parent_id == producer.parent_id
                    and consumer.service == producer.service
                    and produced & _payload_tokens(consumer.request_payload)):
                pairs.add((i, j))
    return pairs


def dual_write_groups(trace: Trace) -> set:
    """Span-position tuples, ascending, of >= 2 write-class spans of one
    service that share a request token and target different components; the
    last position is the secondary write."""
    token_map = {}  # (service, token) -> positions
    for i, span in enumerate(trace.spans):
        if span.span_id != trace.root and span.endpoint.method in WRITE_METHODS:
            for token in _payload_tokens(span.request_payload):
                token_map.setdefault((span.service, token), []).append(i)
    return {tuple(positions) for positions in token_map.values()
            if len({trace.spans[p].endpoint.component for p in positions}) >= 2}


def plan_trace_targets(trace: Trace) -> list:
    """Rules 1-3 for one trace: its labelled targets in span order."""
    last = {s.endpoint: pos for pos, s in enumerate(trace.spans) if s.span_id != trace.root}
    pairs = producer_consumer_pairs(trace)
    producers = {i for i, _j in pairs}
    pruned = {j for _i, j in pairs}
    secondaries = set()
    for group in dual_write_groups(trace):
        secondaries.add(group[-1])
        pruned.update(group[:-1])

    targets = []
    for pos in sorted(last.values()):
        if pos in pruned:
            continue
        rationale = (RATIONALE_PRODUCER if pos in producers
                     else RATIONALE_DUAL_SECONDARY if pos in secondaries
                     else RATIONALE_LAST)
        span = trace.spans[pos]
        targets.append(InjectionTarget(trace.trace_id, pos, span.endpoint,
                                       span.service, rationale))
    return targets


def plan_targets(traces: list, corpus: Corpus, catalog: dict,
                 config: PlanConfig = PlanConfig()) -> list:
    """Full pruning pipeline over the selected traces, cross-producted with
    applicable faults. Deterministic under a fixed seed."""
    cases = []
    for trace in traces:
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
