"""Deterministic virtual-time microservice simulator (system under test)."""

from .engine import (ArmedFault, EntryHandle, Response, SimError, System,
                     record_corpus, record_traces, replay_traffic)
from .topology import (InterfaceSpec, ServiceSpec, Step, TopologyError,
                       TopologySpec, load_topology, save_topology,
                       validate_topology)

__all__ = [
    "ArmedFault", "EntryHandle", "Response", "SimError", "System",
    "record_corpus", "record_traces", "replay_traffic",
    "InterfaceSpec", "ServiceSpec", "Step", "TopologyError", "TopologySpec",
    "load_topology", "save_topology", "validate_topology",
]
