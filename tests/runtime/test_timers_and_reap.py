"""Timer accounting and dead-process timer withdrawal."""

import pytest

from repro.net import NetworkTransport, Topology
from repro.runtime import (Delay, OracleBoard, Receive, Scheduler, Select,
                           Send)
from repro.runtime.tracing import EventKind


def idle(duration):
    def body():
        yield Delay(duration)
    return body()


# ---------------------------------------------------------------------------
# Armed-timer counter and heap compaction
# ---------------------------------------------------------------------------

def test_pending_timer_count_is_live():
    scheduler = Scheduler()
    handles = [scheduler.schedule_at(float(i + 1), lambda: None)
               for i in range(10)]
    assert scheduler.pending_timer_count == 10
    for handle in handles[:4]:
        handle.cancel()
        handle.cancel()  # idempotent: must not double-count
    assert scheduler.pending_timer_count == 6
    scheduler.run()
    assert scheduler.pending_timer_count == 0


def test_cancellation_storm_compacts_heap():
    scheduler = Scheduler()
    handles = [scheduler.schedule_at(float(i + 1), lambda: None)
               for i in range(200)]
    assert len(scheduler._timers) == 200
    for handle in handles[:150]:
        handle.cancel()
    # >50% of a >64-entry heap was cancelled: the heap must have shrunk.
    assert len(scheduler._timers) < 100
    assert scheduler.pending_timer_count == 50
    scheduler.run()
    assert scheduler.now == 200.0  # survivors still fired at their times


def test_expiry_timer_self_cancel_accounting():
    # A timeout firing withdraws its own group (which cancels the very
    # handle being fired); the armed count must not go negative.
    scheduler = Scheduler()

    def waiter():
        yield Select([Receive()], timeout=1.0)

    scheduler.spawn("w", waiter())
    scheduler.run()
    assert scheduler.pending_timer_count == 0
    assert scheduler._armed_timers == 0


# ---------------------------------------------------------------------------
# Dead processes no longer hold the virtual clock
# ---------------------------------------------------------------------------

def test_kill_withdraws_delay_timer():
    scheduler = Scheduler()
    scheduler.spawn("sleeper", idle(100.0))
    scheduler.spawn("bystander", idle(1.0))
    scheduler.kill_at(2.0, "sleeper")
    result = scheduler.run()
    # Pre-fix the leaked Delay timer dragged quiescence out to t=100.
    assert result.time == 2.0
    assert scheduler.pending_timer_count == 0
    assert result.killed == ["sleeper"]


def test_interrupt_withdraws_delay_timer():
    scheduler = Scheduler()

    def sleeper():
        try:
            yield Delay(100.0)
        except RuntimeError:
            return "interrupted"

    scheduler.spawn("sleeper", sleeper())
    scheduler.schedule_at(3.0, lambda: scheduler.interrupt(
        "sleeper", RuntimeError("wake up")))
    result = scheduler.run()
    assert result.time == 3.0
    assert result.results["sleeper"] == "interrupted"
    assert scheduler.pending_timer_count == 0


def test_kill_mid_transit_withdraws_receiver_resume():
    topology = Topology("pair")
    topology.add_link("a", "b", 10.0)
    transport = NetworkTransport(topology, {"s": "a", "r": "b"})
    scheduler = Scheduler(transport=transport)

    def sender():
        yield Send("r", "payload")
        return "sent"

    def receiver():
        value = yield Receive()
        return value  # pragma: no cover - killed mid-transit

    scheduler.spawn("s", sender())
    scheduler.spawn("r", receiver())
    scheduler.kill_at(5.0, "r")  # commit at t=0, delivery due t=10
    result = scheduler.run()
    assert result.results["s"] == "sent"
    assert result.killed == ["r"]
    assert result.time == 10.0  # the sender's own resume still lands
    assert scheduler.pending_timer_count == 0


# ---------------------------------------------------------------------------
# Partition heal re-enables blocked pairs (both matchers)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("board_cls", [None, OracleBoard])
def test_heal_releases_blocked_pair(board_cls):
    topology = Topology("pair")
    topology.add_link("a", "b", 0.0)
    transport = NetworkTransport(topology, {"s": "a", "r": "b"})
    scheduler = Scheduler(
        transport=transport,
        board=board_cls() if board_cls is not None else None)
    scheduler.match_filter = transport.match_filter
    transport.partition("a", "b")
    scheduler.schedule_at(7.0, lambda: transport.heal("a", "b"))

    def sender():
        yield Send("r", "v")

    def receiver():
        return (yield Receive())

    scheduler.spawn("s", sender())
    scheduler.spawn("r", receiver())
    result = scheduler.run()
    assert result.results["r"] == "v"
    comm = scheduler.tracer.of_kind(EventKind.COMM)[0]
    assert comm.time == 7.0  # committed exactly when the link healed
