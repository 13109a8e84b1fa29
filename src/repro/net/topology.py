"""Fixed network topologies.

The paper's design brief fixes the network: "the abstraction will be
designed in a context of a fixed network ... no changes in the underlying
communication network are needed in order to execute a script".  A
:class:`Topology` is an undirected weighted graph of nodes (processors);
link weights are latencies.  All-pairs shortest-path latencies are computed
once and used by the transport to time every rendezvous.

Factories build the shapes the broadcast-strategy comparison needs (star,
line, balanced binary tree, complete graph, ring).
"""

from __future__ import annotations

import heapq
from typing import Hashable

from ..errors import ReproError

Node = Hashable


class TopologyError(ReproError):
    """A topology query referenced unknown nodes or a disconnected pair."""


class Topology:
    """An undirected weighted graph with cached shortest-path latencies."""

    def __init__(self, name: str = "topology"):
        self.name = name
        self._adjacency: dict[Node, dict[Node, float]] = {}
        self._distance_cache: dict[Node, dict[Node, float]] = {}
        self._disabled: set[frozenset] = set()

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Add an isolated node (links add their endpoints automatically)."""
        self._adjacency.setdefault(node, {})
        self._distance_cache.clear()

    def add_link(self, a: Node, b: Node, latency: float = 1.0) -> None:
        """Add (or update) an undirected link with the given latency."""
        if latency < 0:
            raise TopologyError(f"negative latency {latency} on {a!r}-{b!r}")
        if a == b:
            raise TopologyError(f"self-link on {a!r}")
        self._adjacency.setdefault(a, {})[b] = latency
        self._adjacency.setdefault(b, {})[a] = latency
        self._distance_cache.clear()

    # -- link faults ---------------------------------------------------------

    def _require_link(self, a: Node, b: Node) -> frozenset:
        if b not in self._adjacency.get(a, {}):
            raise TopologyError(f"no link {a!r}-{b!r} on {self.name}")
        return frozenset((a, b))

    def disable_link(self, a: Node, b: Node) -> None:
        """Cut the direct link ``a``-``b`` (fault injection; idempotent).

        Disabled links carry no traffic: shortest paths route around them,
        and pairs left disconnected report as such via :meth:`connected`.
        The link's weight is preserved for :meth:`enable_link`.
        """
        self._disabled.add(self._require_link(a, b))
        self._distance_cache.clear()

    def enable_link(self, a: Node, b: Node) -> None:
        """Restore a previously disabled link (idempotent)."""
        self._disabled.discard(self._require_link(a, b))
        self._distance_cache.clear()

    def connected(self, a: Node, b: Node) -> bool:
        """Is there a live path between ``a`` and ``b``?"""
        if a == b:
            if a not in self._adjacency:
                raise TopologyError(f"unknown node {a!r}")
            return True
        return b in self._distances_from(a)

    # -- queries --------------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        """All nodes, in insertion order."""
        return list(self._adjacency)

    def neighbours(self, node: Node) -> dict[Node, float]:
        """Adjacent nodes and their direct-link latencies."""
        if node not in self._adjacency:
            raise TopologyError(f"unknown node {node!r}")
        return dict(self._adjacency[node])

    def link_count(self) -> int:
        """Number of undirected links."""
        return sum(len(peers) for peers in self._adjacency.values()) // 2

    def latency(self, a: Node, b: Node) -> float:
        """Shortest-path latency between two nodes (0 for a == b)."""
        if a == b:
            if a not in self._adjacency:
                raise TopologyError(f"unknown node {a!r}")
            return 0.0
        distances = self._distances_from(a)
        if b not in distances:
            raise TopologyError(f"no path from {a!r} to {b!r}")
        return distances[b]

    def _distances_from(self, source: Node) -> dict[Node, float]:
        if source not in self._adjacency:
            raise TopologyError(f"unknown node {source!r}")
        cached = self._distance_cache.get(source)
        if cached is not None:
            return cached
        distances: dict[Node, float] = {source: 0.0}
        frontier: list[tuple[float, int, Node]] = [(0.0, 0, source)]
        counter = 0
        while frontier:
            dist, _, node = heapq.heappop(frontier)
            if dist > distances.get(node, float("inf")):
                continue
            for peer, weight in self._adjacency[node].items():
                if self._disabled and frozenset((node, peer)) in self._disabled:
                    continue
                candidate = dist + weight
                if candidate < distances.get(peer, float("inf")):
                    distances[peer] = candidate
                    counter += 1
                    heapq.heappush(frontier, (candidate, counter, peer))
        self._distance_cache[source] = distances
        return distances


def star(leaf_count: int, latency: float = 1.0) -> Topology:
    """A hub node ``"hub"`` with ``leaf_count`` leaves ``("leaf", i)``."""
    topology = Topology(f"star({leaf_count})")
    topology.add_node("hub")
    for i in range(1, leaf_count + 1):
        topology.add_link("hub", ("leaf", i), latency)
    return topology


def line(length: int, latency: float = 1.0) -> Topology:
    """A chain of ``length`` nodes ``("n", 0..length-1)``."""
    topology = Topology(f"line({length})")
    if length < 1:
        raise TopologyError("line needs at least one node")
    topology.add_node(("n", 0))
    for i in range(1, length):
        topology.add_link(("n", i - 1), ("n", i), latency)
    return topology


def binary_tree(node_count: int, latency: float = 1.0) -> Topology:
    """A balanced binary tree over nodes ``("n", 1..node_count)`` (heap order)."""
    topology = Topology(f"tree({node_count})")
    if node_count < 1:
        raise TopologyError("tree needs at least one node")
    topology.add_node(("n", 1))
    for i in range(2, node_count + 1):
        topology.add_link(("n", i // 2), ("n", i), latency)
    return topology


def complete(node_count: int, latency: float = 1.0) -> Topology:
    """A complete graph over ``("n", 0..node_count-1)``."""
    topology = Topology(f"complete({node_count})")
    if node_count < 1:
        raise TopologyError("complete graph needs at least one node")
    topology.add_node(("n", 0))
    for i in range(node_count):
        for j in range(i + 1, node_count):
            topology.add_link(("n", i), ("n", j), latency)
    return topology


def ring(node_count: int, latency: float = 1.0) -> Topology:
    """A cycle over ``("n", 0..node_count-1)``."""
    topology = Topology(f"ring({node_count})")
    if node_count < 3:
        raise TopologyError("ring needs at least three nodes")
    for i in range(node_count):
        topology.add_link(("n", i), ("n", (i + 1) % node_count), latency)
    return topology
