"""The reference workload generator: every interface of a topology, a fixed
number of times.

With the shipped reference topology and five instances per interface it
gives ``assets/reference_workload.jsonl``; the benchmark generates its larger
workloads with more. The reference topology itself is built by
``tests/reference_system.py``, which also writes the shipped asset files.
"""

from __future__ import annotations

from .sim.topology import TopologySpec
from .templating import EntryRequest

WORKLOAD_GAP_US = 250_000

# Short-valued fields are excluded from payload-overlap matching (< 4 chars).
_SHORT_POOLS = {"memo", "priority"}


def _pool(field: str, service: str) -> list:
    # six values: up to six instances per interface (the shipped workload
    # has five) never re-read a store key an earlier instance wrote, since
    # incidental reads of stored values would fake producer-consumer data
    # flows; larger workloads cycle the values and do re-read
    if field in _SHORT_POOLS:
        return [f"{field[0]}{i}" for i in range(6)]
    return [f"{field}-{service}-{i:02d}x" for i in range(6)]


def build_reference_workload(spec: TopologySpec, per_interface: int = 5) -> list:
    """Deterministic workload hitting every interface `per_interface` times,
    one request every WORKLOAD_GAP_US from a second after boot, with cycled
    data values, fresh tokens, and send-time timestamps."""
    entries = []
    counter = 0
    at = spec.boot_us + 1_000_000
    for svc, iface in spec.interfaces():
        pools = {f.path: _pool(f.path, svc.name) for f in iface.fields if f.kind == "data"}
        for instance in range(per_interface):
            payload = {}
            path = iface.uri_template
            for f in iface.fields:
                if f.kind == "data":
                    payload[f.path] = pools[f.path][instance % len(pools[f.path])]
                elif f.kind == "static":
                    payload[f.path] = f.value
                elif f.kind == "timestamp":
                    payload[f.path] = str(at)
                else:  # session / idempotency / signature
                    counter += 1
                    payload[f.path] = f"{f.kind[:2]}-{counter:08d}"
            for segment in iface.uri_template.split("/")[1:]:
                if segment.startswith("{"):
                    field = segment[1:-1]
                    path = path.replace(segment, payload.get(field, "x"))
            entries.append((at, EntryRequest(f"{iface.method} {path}", payload)))
            at += WORKLOAD_GAP_US
    return entries
