"""Network transport: placement-aware latency and message accounting.

A :class:`NetworkTransport` plugs into the scheduler's transport hook: every
committed rendezvous is charged the shortest-path latency between the nodes
hosting the two processes, and counted into :class:`MessageStats`.  Because
the paper requires that "the role should be executed by the same processor
on which the main body of the enrolling process is executed", placement maps
*processes* to nodes — roles automatically inherit the placement of whoever
enrolled, with no extra mapping.

The transport is also the seat of injected network faults
(:mod:`repro.faults`): links may be partitioned and healed, a latency
factor models congestion spikes, and a drop factor models lossy links that
force retransmissions.  Partitions act at *matching* time — install
:meth:`NetworkTransport.match_filter` on the scheduler and a rendezvous
across a cut link simply never commits until the link heals (the
synchronous-communication analogue of an undeliverable message).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Callable, Hashable, Mapping, TYPE_CHECKING

from ..runtime.instrument import Sink, defined
from .topology import Topology, TopologyError

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.board import Commit
    from ..runtime.process import Process
    from ..runtime.scheduler import Scheduler

Node = Hashable


@dataclasses.dataclass
class MessageStats:
    """Aggregate message accounting for one run."""

    messages: int = 0
    local_messages: int = 0       # same-node rendezvous
    total_latency: float = 0.0
    max_latency: float = 0.0
    dropped: int = 0              # simulated retransmissions (drop faults)
    per_pair: Counter = dataclasses.field(default_factory=Counter)

    def record(self, src: Node, dst: Node, latency: float) -> None:
        """Account one rendezvous between ``src`` and ``dst``.

        A zero-latency rendezvous counts as local only when both endpoints
        share a node; distinct nodes joined by a zero-weight link still
        produce a remote message.
        """
        self.messages += 1
        if src == dst:
            self.local_messages += 1
        self.total_latency += latency
        self.max_latency = max(self.max_latency, latency)
        self.per_pair[(src, dst)] += 1

    @property
    def remote_messages(self) -> int:
        """Messages that crossed at least one link."""
        return self.messages - self.local_messages


class NetworkTransport:
    """Scheduler transport hook backed by a :class:`Topology`.

    ``placement`` maps process names to topology nodes.  Processes without
    a placement use ``default_node`` when given, otherwise communication
    involving them is an error — silent mis-placement would corrupt the
    benchmark numbers.

    Fault-injection state (all mutable at run time, usually via timers a
    :class:`~repro.faults.FaultPlan` installs):

    ``latency_factor``
        Multiplier on every remote message's latency (congestion spikes).
    ``drop_retries``
        Number of simulated retransmissions per remote message; each
        retransmission re-pays the link latency and is counted in
        ``stats.dropped``.  The message is always delivered.
    partitions
        :meth:`partition` / :meth:`heal` cut and restore topology links;
        :meth:`match_filter` turns the cut into a matching-time barrier.

    Observers attached with :meth:`observe` hear of every charged message.
    """

    def __init__(self, topology: Topology,
                 placement: Mapping[Hashable, Node],
                 default_node: Node | None = None):
        self.topology = topology
        self.placement = dict(placement)
        self.default_node = default_node
        self.stats = MessageStats()
        self.latency_factor = 1.0
        self.drop_retries = 0
        self._message_hooks: list[Callable[..., None]] = []

    def observe(self, sink: Sink) -> None:
        """Call ``sink.on_message`` for every message, if its class
        defines it (after the observers attached before it)."""
        callback = defined(sink, "on_message")
        if callback is not None:
            self._message_hooks.append(callback)

    def node_of(self, process: Hashable) -> Node:
        node = self.placement.get(process, self.default_node)
        if node is None:
            raise TopologyError(f"process {process!r} has no placement on "
                                f"{self.topology.name}")
        return node

    def place(self, process: Hashable, node: Node) -> None:
        """Assign (or reassign) a process to a node."""
        self.placement[process] = node

    # -- fault injection -----------------------------------------------------

    def partition(self, a: Node, b: Node) -> None:
        """Cut the direct link ``a``-``b`` (traffic reroutes or blocks)."""
        self.topology.disable_link(a, b)

    def heal(self, a: Node, b: Node) -> None:
        """Restore a previously partitioned link."""
        self.topology.enable_link(a, b)

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """Can the nodes hosting processes ``a`` and ``b`` reach each other?"""
        return self.topology.connected(self.node_of(a), self.node_of(b))

    def match_filter(self, sender: "Process", receiver: "Process") -> bool:
        """Scheduler match filter: block rendezvous across a partition.

        Processes with no placement are treated as reachable so that the
        placement error surfaces from the transport call itself (with a
        clear message) rather than being silently swallowed here.
        """
        try:
            return self.connected(sender.name, receiver.name)
        except TopologyError:
            return True

    # -- transport hook ------------------------------------------------------

    def __call__(self, scheduler: "Scheduler", commit: "Commit") -> float:
        src = self.node_of(commit.sender.name)
        dst = self.node_of(commit.receiver.name)
        if src == dst:
            # Same node: no link is crossed, so congestion and drop
            # faults cannot apply.  (A zero-weight *link* is different:
            # the message is still remote and pays its retries.)
            latency = 0.0
        else:
            latency = self.topology.latency(src, dst) * self.latency_factor
            if self.drop_retries:
                retries = self.drop_retries
                self.stats.dropped += retries
                latency *= 1 + retries
        self.stats.record(src, dst, latency)
        if self._message_hooks:
            for hook in self._message_hooks:
                hook(scheduler.now, src, dst, latency)
        return latency
