"""NetworkTransport edge cases: stats accounting, placement, fault knobs."""

from types import SimpleNamespace

import pytest

from repro.net import MessageStats, NetworkTransport, Topology, TopologyError


def _pair(zero_weight=False):
    topology = Topology("pair")
    topology.add_link("a", "b", 0.0 if zero_weight else 1.0)
    return topology


def _commit(sender, receiver):
    return SimpleNamespace(sender=SimpleNamespace(name=sender),
                           receiver=SimpleNamespace(name=receiver))


def test_same_node_rendezvous_counts_as_local():
    stats = MessageStats()
    stats.record("a", "a", 0.0)
    assert stats.messages == 1
    assert stats.local_messages == 1
    assert stats.remote_messages == 0


def test_zero_latency_remote_link_still_counts_as_remote():
    # Distinct nodes joined by a zero-weight link: zero latency must not
    # be mistaken for a same-node rendezvous.
    stats = MessageStats()
    stats.record("a", "b", 0.0)
    assert stats.local_messages == 0
    assert stats.remote_messages == 1
    assert stats.max_latency == 0.0


def test_stats_aggregate_latency_and_pairs():
    stats = MessageStats()
    stats.record("a", "b", 1.0)
    stats.record("a", "b", 3.0)
    stats.record("b", "a", 2.0)
    assert stats.messages == 3
    assert stats.total_latency == 6.0
    assert stats.max_latency == 3.0
    assert stats.per_pair[("a", "b")] == 2
    assert stats.per_pair[("b", "a")] == 1


def test_transport_records_through_call():
    transport = NetworkTransport(_pair(), {"p": "a", "q": "b", "r": "b"})
    assert transport(None, _commit("p", "q")) == 1.0
    assert transport(None, _commit("q", "r")) == 0.0  # co-located on b
    assert transport.stats.remote_messages == 1
    assert transport.stats.local_messages == 1


def test_unplaced_process_raises_topology_error_naming_it():
    transport = NetworkTransport(_pair(), {"p": "a"})
    with pytest.raises(TopologyError, match="ghost"):
        transport.node_of("ghost")
    with pytest.raises(TopologyError, match="ghost"):
        transport(None, _commit("p", "ghost"))


def test_default_node_catches_unplaced_processes():
    transport = NetworkTransport(_pair(), {"p": "a"}, default_node="b")
    assert transport.node_of("anyone") == "b"
    assert transport(None, _commit("p", "anyone")) == 1.0


def test_match_filter_lets_placement_errors_surface_at_the_transport():
    # An unplaced process is treated as reachable at matching time; the
    # TopologyError must come from the transport call with a clear name,
    # not be silently swallowed by the filter.
    transport = NetworkTransport(_pair(), {"p": "a"})
    sender = SimpleNamespace(name="p")
    receiver = SimpleNamespace(name="ghost")
    assert transport.match_filter(sender, receiver) is True
    with pytest.raises(TopologyError):
        transport(None, _commit("p", "ghost"))


def test_latency_factor_scales_remote_but_not_colocated():
    transport = NetworkTransport(_pair(), {"p": "a", "q": "b", "r": "b"})
    transport.latency_factor = 3.0
    assert transport(None, _commit("p", "q")) == 3.0
    assert transport(None, _commit("q", "r")) == 0.0


def test_drop_retries_repay_latency_and_count_dropped():
    transport = NetworkTransport(_pair(), {"p": "a", "q": "b", "r": "b"})
    transport.drop_retries = 2
    assert transport(None, _commit("p", "q")) == 3.0  # 1 + 2 retransmits
    assert transport.stats.dropped == 2
    # Local rendezvous can't drop: nothing crosses a link.
    assert transport(None, _commit("q", "r")) == 0.0
    assert transport.stats.dropped == 2


def test_zero_weight_link_is_remote_and_pays_drop_retries():
    # A zero-weight link between distinct nodes is still a link: drop
    # faults force retransmissions (counted), and the latency factor
    # applies uniformly (scaling zero is still zero).  Only same-node
    # rendezvous are exempt from fault knobs.
    transport = NetworkTransport(_pair(zero_weight=True), {"p": "a", "q": "b"})
    transport.latency_factor = 5.0
    transport.drop_retries = 4
    assert transport(None, _commit("p", "q")) == 0.0
    assert transport.stats.dropped == 4
    assert transport.stats.remote_messages == 1


def test_same_node_is_exempt_from_drop_and_latency_knobs():
    transport = NetworkTransport(_pair(), {"p": "a", "q": "b", "r": "b"})
    transport.latency_factor = 5.0
    transport.drop_retries = 4
    assert transport(None, _commit("q", "r")) == 0.0
    assert transport.stats.dropped == 0
    assert transport.stats.local_messages == 1


def test_drop_window_of_any_length_delivers_at_repaid_latency():
    # No retry budget: r retries always cost latency * (1 + r) and add r
    # to ``dropped``, however long the window.
    transport = NetworkTransport(_pair(), {"p": "a", "q": "b"})
    transport.drop_retries = 8
    assert transport(None, _commit("p", "q")) == 9.0
    transport.drop_retries = 20
    assert transport(None, _commit("p", "q")) == 21.0
    assert transport.stats.dropped == 28
    assert transport.stats.messages == 2
