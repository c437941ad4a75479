"""Extensible application-level fault library.

The catalog is data, not code: one fault per line so new failure modes can be
added without rebuilds. Matchers select which endpoint tuples a fault applies
to; exception names are opaque strings interpreted by the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .model import COMPONENTS, Endpoint, read_lines

CATEGORY_PLATFORM = "platform_exception"
CATEGORY_LATENCY = "comm_latency"
CATEGORY_PROTOCOL = "comm_protocol_error"
CATEGORY_MANIPULATED = "comm_manipulated_response"
CATEGORIES = (CATEGORY_PLATFORM, CATEGORY_LATENCY, CATEGORY_PROTOCOL, CATEGORY_MANIPULATED)

EFFECT_THROW = "throw"
EFFECT_DELAY = "delay"
EFFECT_STATUS = "status"

# Category -> allowed effect kind (spec invariant).
_CATEGORY_EFFECTS = {
    CATEGORY_PLATFORM: EFFECT_THROW,
    CATEGORY_PROTOCOL: EFFECT_THROW,
    CATEGORY_LATENCY: EFFECT_DELAY,
    CATEGORY_MANIPULATED: EFFECT_STATUS,
}

DELAY_AUTO = "auto"
DEFAULT_DELAY_US = 5_000_000  # when the target step has no configured timeout
WILDCARD = "*"


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class EndpointMatcher:
    component: str
    framework: str = WILDCARD
    method: str = WILDCARD

    def matches(self, endpoint: Endpoint) -> bool:
        return ((self.component == WILDCARD or self.component == endpoint.component)
                and (self.framework == WILDCARD or self.framework == endpoint.framework)
                and (self.method == WILDCARD or self.method == endpoint.method))


@dataclass(frozen=True)
class Effect:
    kind: str
    exception: str = ""       # throw
    delay_us: Optional[int] = None  # delay; None means auto (2x target timeout)
    status_code: int = 0      # status
    body: str = ""


@dataclass(frozen=True)
class FaultSpec:
    fault_id: str
    category: str
    matcher: EndpointMatcher
    effect: Effect


def faults_for_endpoint(catalog: dict, endpoint: Endpoint) -> list:
    """All faults of `catalog` (fault_id -> FaultSpec) whose matcher matches,
    ordered by fault_id."""
    hits = [f for f in catalog.values() if f.matcher.matches(endpoint)]
    hits.sort(key=lambda f: f.fault_id)
    return hits


def _parse_effect(kind: str, args: list, where: str) -> Effect:
    if kind == EFFECT_THROW:
        if len(args) != 1:
            raise CatalogError(f"{where}: throw expects an exception name")
        return Effect(kind=EFFECT_THROW, exception=args[0])
    if kind == EFFECT_DELAY:
        if len(args) != 1:
            raise CatalogError(f"{where}: delay expects a duration or 'auto'")
        if args[0] == DELAY_AUTO:
            return Effect(kind=EFFECT_DELAY, delay_us=None)
        try:
            if args[0].endswith("ms"):
                delay = int(args[0][:-2]) * 1000
            elif args[0].endswith("s"):
                delay = int(args[0][:-1]) * 1_000_000
            else:
                delay = int(args[0])
        except ValueError:
            raise CatalogError(f"{where}: bad delay {args[0]!r}") from None
        return Effect(kind=EFFECT_DELAY, delay_us=delay)
    if kind == EFFECT_STATUS:
        if not args:
            raise CatalogError(f"{where}: status expects a code")
        try:
            code = int(args[0])
        except ValueError:
            raise CatalogError(f"{where}: bad status code {args[0]!r}") from None
        return Effect(kind=EFFECT_STATUS, status_code=code, body=" ".join(args[1:]))
    raise CatalogError(f"{where}: unknown effect kind {kind!r}")


def parse_catalog(text: str) -> dict:
    return _catalog_from_lines((f"line {n}", line) for n, line in enumerate(text.splitlines(), 1))


def _catalog_from_lines(lines) -> dict:
    """The catalog, fault_id -> FaultSpec, of (where, line) pairs, each error
    prefixed by its `where`."""
    faults = {}
    for where, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 4:
            raise CatalogError(f"{where}: expected 'id category matcher effect ...'")
        fault_id, category, matcher_text, effect_kind = parts[:4]
        if category not in CATEGORIES:
            raise CatalogError(f"{where}: unknown category {category!r}")
        triple = matcher_text.split(":")
        if len(triple) != 3 or not all(triple):
            raise CatalogError(f"{where}: matcher must be component:framework:method")
        if triple[0] != WILDCARD and triple[0] not in COMPONENTS:
            raise CatalogError(f"{where}: unknown component {triple[0]!r}")
        effect = _parse_effect(effect_kind, parts[4:], where)
        if effect.kind != _CATEGORY_EFFECTS[category]:
            raise CatalogError(
                f"{where}: effect {effect.kind!r} inconsistent with category {category!r}")
        if fault_id in faults:
            raise CatalogError(f"{where}: duplicate fault id {fault_id!r}")
        faults[fault_id] = FaultSpec(fault_id, category,
                                     EndpointMatcher(*triple), effect)
    return faults


def load_catalog(path) -> dict:
    return _catalog_from_lines(read_lines(path, "catalog"))


def default_catalog() -> dict:
    """The shipped fault library (covers every endpoint type the reference
    simulator topology emits)."""
    text = resources.files("resilitest.assets").joinpath("default_faults.txt").read_text("utf-8")
    return parse_catalog(text)
