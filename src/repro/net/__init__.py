"""Fixed-network simulation: topologies, placement, latency, accounting."""

from .topology import (Topology, TopologyError, binary_tree, complete, line,
                       ring, star)
from .transport import MessageStats, NetworkTransport

__all__ = [
    "MessageStats",
    "NetworkTransport",
    "Topology",
    "TopologyError",
    "binary_tree",
    "complete",
    "line",
    "ring",
    "star",
]
