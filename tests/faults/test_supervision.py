"""Supervision policies: crashes demote to absence or abort cleanly."""

import pytest

from repro.core import SealPolicy, UNFILLED
from repro.errors import PerformanceAborted
from repro.faults import FaultPlan, make_chaos_broadcast
from repro.net import NetworkTransport, star
from repro.runtime import Delay, Scheduler

WINDOW = 2.0
N = 3


def build(seed=0, with_network=True):
    """A 3-recipient chaos broadcast rig with deterministic enrollments."""
    scheduler = Scheduler(seed=seed)
    transport = None
    if with_network:
        placement = {"S": "hub"}
        placement.update({("R", i): ("leaf", i) for i in range(1, N + 1)})
        transport = NetworkTransport(star(N), placement)
        scheduler.transport = transport
    script = make_chaos_broadcast(N, WINDOW)
    instance = script.instance(scheduler, name="rig",
                               seal_policy=SealPolicy.MANUAL)
    supervisor = instance.supervise()
    state = {"aborted": None}

    def sender_process():
        try:
            yield from instance.enroll("sender", data="v")
        except PerformanceAborted as exc:
            state["aborted"] = exc
            return "aborted"
        return "sent"

    def recipient_process(i, stagger):
        yield Delay(stagger)
        try:
            out = yield from instance.enroll(("recipient", i))
        except PerformanceAborted as exc:
            state["aborted"] = exc
            return "aborted"
        return out["data"]

    scheduler.spawn("S", sender_process())
    for i in range(1, N + 1):
        scheduler.spawn(("R", i), recipient_process(i, 0.2 * i))
    return scheduler, instance, supervisor, transport, state


def assert_no_residue(scheduler, instance):
    assert scheduler.board_size == 0
    assert scheduler.waiter_count == 0
    assert scheduler.pending_timer_count == 0
    assert not scheduler.alias_owner
    assert instance.pending_count == 0
    assert all(p.ended for p in instance.performances)


def test_crash_before_enrollment_yields_absent_role():
    scheduler, instance, supervisor, _, _ = build()
    # R3 staggers to t=0.6; killing it at t=0.3 means it never enrolls.
    FaultPlan().crash(0.3, ("R", 3)).install(scheduler)
    result = scheduler.run()
    performance = instance.performances[0]
    assert performance.is_absent(("recipient", 3))
    assert performance.role_terminated(("recipient", 3))
    assert not performance.is_crashed(("recipient", 3))  # never filled
    assert result.results[("R", 1)] == "v"
    assert result.results[("R", 2)] == "v"
    assert supervisor.crashes == 0 and supervisor.aborts == 0
    assert_no_residue(scheduler, instance)


def test_crash_of_pooled_request_withdraws_it():
    """A dead process's pooled enrollment can never be drafted later."""
    scheduler, instance, supervisor, _, _ = build()

    def squatter():
        # Competes for the same role as R1; whoever is second stays pooled.
        yield from instance.enroll(("recipient", 1))

    scheduler.spawn("squatter", squatter())
    FaultPlan().crash(0.5, "squatter").install(scheduler)
    scheduler.run()
    assert instance.pending_count == 0
    assert_no_residue(scheduler, instance)


def test_pre_seal_crash_vacates_the_role_without_abort():
    scheduler, instance, supervisor, _, _ = build()
    # R1 enrolls at t=0.2; the seal happens at t=2.0.  Killing R1 at t=1
    # vacates the filled role while the participant set is still open.
    FaultPlan().crash(1.0, ("R", 1)).install(scheduler)
    result = scheduler.run()
    performance = instance.performances[0]
    assert supervisor.crashes == 1 and supervisor.aborts == 0
    assert performance.is_crashed(("recipient", 1))
    assert performance.is_absent(("recipient", 1))
    assert result.results[("R", 2)] == "v"
    assert result.results[("R", 3)] == "v"
    assert_no_residue(scheduler, instance)


def test_non_critical_crash_demotes_to_absence_mid_performance():
    scheduler, instance, supervisor, _, _ = build()
    # Sends start at t=2; with unit hub-leaf latency R3's delivery is still
    # pending at t=2.5, so the crash lands mid-performance, post-seal.
    FaultPlan().crash(2.5, ("R", 3)).install(scheduler)
    result = scheduler.run()
    performance = instance.performances[0]
    assert supervisor.crashes == 1 and supervisor.aborts == 0
    assert performance.aborted is False and performance.ended
    assert performance.is_crashed(("recipient", 3))
    assert performance.role_terminated(("recipient", 3))
    assert result.results["S"] == "sent"
    assert result.results[("R", 1)] == "v"
    assert result.results[("R", 2)] == "v"
    assert_no_residue(scheduler, instance)


def test_sender_blocked_on_dead_partner_gets_unfilled_value():
    """A rendezvous wedged on a crashed peer unwinds into the policy."""
    scheduler, instance, supervisor, transport, _ = build()
    # Cut R1's link before the broadcast starts: the sender's first send
    # blocks across the partition, then R1 dies.  The sender must unwind
    # (CrashedPartnerSignal -> UNFILLED) and serve R2 and R3.
    (FaultPlan()
     .partition(1.5, "hub", ("leaf", 1), heal_at=50.0)
     .crash(4.0, ("R", 1))
     .install(scheduler, transport=transport))
    result = scheduler.run()
    assert supervisor.crashes == 1 and supervisor.aborts == 0
    assert result.results["S"] == "sent"
    assert result.results[("R", 2)] == "v"
    assert result.results[("R", 3)] == "v"
    assert_no_residue(scheduler, instance)


def test_refilled_role_is_dropped_from_the_crashed_set():
    """Pre-seal crash vacates a role; a replacement enrollee refills it.

    The refill must clear the role from ``performance.crashed`` — a later
    post-seal crash of a *different* role computes its absent-fallback
    dead set from that record, and a stale entry would treat the live
    replacement's address as dead, spuriously unwinding every process
    blocked on it (found by the recovery soak, seed 138)."""
    scheduler, instance, supervisor, transport, _ = build()

    def replacement():
        yield Delay(1.5)
        yield from instance.enroll("sender", data="v2")
        return "sent2"

    scheduler.spawn("S2", replacement())
    transport.place("S2", "hub")
    # Kill the original sender pre-seal: the role vacates, then S2's
    # pooled request refills it (fresh role body => seal at t=3.5, sends
    # from t=3.5).  R1's delivery is in flight at t=4.2 when R1 dies.
    (FaultPlan()
     .crash(1.0, "S")
     .crash(4.2, ("R", 1))
     .install(scheduler))
    result = scheduler.run()
    performance = instance.performances[0]
    assert supervisor.crashes == 2 and supervisor.aborts == 0
    assert not performance.is_crashed("sender")          # refilled => live
    assert performance.is_crashed(("recipient", 1))
    assert performance.ended and not performance.aborted
    # R2 and R3 must still hear from the *replacement* sender — with the
    # stale entry they were interrupted as if the sender were dead.
    assert result.results["S2"] == "sent2"
    assert result.results[("R", 2)] == "v2"
    assert result.results[("R", 3)] == "v2"
    assert_no_residue(scheduler, instance)


def test_critical_crash_aborts_and_releases_survivors():
    scheduler, instance, supervisor, _, state = build()
    FaultPlan().crash(2.5, "S").install(scheduler)
    result = scheduler.run()
    performance = instance.performances[0]
    assert supervisor.aborts == 1
    assert performance.aborted and performance.ended
    assert performance.is_crashed("sender")
    for i in range(1, N + 1):
        assert result.results[("R", i)] == "aborted"
    exc = state["aborted"]
    assert isinstance(exc, PerformanceAborted)
    assert exc.performance_id == performance.id
    assert "sender" in exc.crashed
    assert_no_residue(scheduler, instance)


def test_absent_communication_returns_unfilled_under_distinguished():
    """Direct check of the distinguished value on the sender side."""
    scheduler = Scheduler(seed=3)
    script = make_chaos_broadcast(2, WINDOW)
    instance = script.instance(scheduler, name="direct",
                               seal_policy=SealPolicy.MANUAL)
    instance.supervise()
    seen = {}

    def sender_process():
        yield from instance.enroll("sender", data="v")

    def recipient_process():
        out = yield from instance.enroll(("recipient", 1))
        seen["r1"] = out["data"]

    def prober():
        yield Delay(WINDOW + 1.0)
        ctx_performance = instance.performances[0]
        seen["absent"] = ctx_performance.is_absent(("recipient", 2))

    scheduler.spawn("S", sender_process())
    scheduler.spawn(("R", 1), recipient_process())
    scheduler.spawn("prober", prober())
    scheduler.run()
    # Recipient 2 never enrolled: sealed out, sender skipped it entirely
    # (family_indices excludes absent members), and the paper's absence
    # query holds.
    assert seen["absent"] is True
    assert seen["r1"] == "v"
    assert UNFILLED != "v"
