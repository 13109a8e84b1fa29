"""The one expiring wait: ``Select(timeout=)`` and the role receive on it."""

import pytest

from repro.core import Mode, Param, ScriptDef, UNFILLED
from repro.faults import FaultPlan
from repro.runtime import (TIMED_OUT, TIMED_OUT_BRANCH, Delay, Receive,
                           Scheduler, Select, Send, run_processes)
from repro.scenarios import lookup
from repro.verification import check_all


def timed_listener(patience, talk=None, source=None, with_sender=False):
    """A script whose 'listener' receives once with ``patience``.

    With ``talk=(delay, value)``, a 'talker' role sends ``value`` to the
    listener after ``delay``.  The listener alone is critical, so a
    crashed talker is demoted to absence.
    """
    script = ScriptDef("timed")

    @script.role("listener", params=[Param("got", Mode.OUT)])
    def listener(ctx, got):
        got.value = yield from ctx.receive(source, timeout=patience,
                                           with_sender=with_sender)

    if talk is not None:
        @script.role("talker")
        def talker(ctx):
            delay, value = talk
            yield Delay(delay)
            yield from ctx.send("listener", value)

    script.critical_role_set("listener")
    return script


def retrying_listener(patience):
    """A 'listener' that re-receives until a value beats ``patience``."""
    script = ScriptDef("retrying")

    @script.role("listener", params=[Param("got", Mode.OUT)])
    def listener(ctx, got):
        attempts = 0
        while True:
            value = yield from ctx.receive(timeout=patience)
            if value is TIMED_OUT:
                attempts += 1
                continue
            got.value = attempts, value
            return

    @script.role("talker")
    def talker(ctx):
        yield Delay(3.5)
        yield from ctx.send("listener", 42)

    return script


def run_roles(script, *roles, plan=None):
    """Enroll one supervised process per role (named by the role's first
    letter, upper case, spawned in the order given) and run; return the
    run result and the scheduler."""
    scheduler = Scheduler()
    instance = script.instance(scheduler, name=script.name)
    instance.supervise()

    def enrolling(role):
        out = yield from instance.enroll(role)
        return out

    for role in roles:
        scheduler.spawn(role[0].upper(), enrolling(role))
    if plan is not None:
        plan.install(scheduler)
    return scheduler.run(), scheduler


def test_receive_timeout_expires_to_distinguished_value():
    result, _ = run_roles(timed_listener(5.0), "listener")
    assert result.results["L"]["got"] is TIMED_OUT
    assert not result.results["L"]["got"]  # TIMED_OUT is falsy
    assert result.time == 5.0


def test_receive_timeout_delivers_when_partner_arrives_in_time():
    script = timed_listener(10.0, talk=(2.0, "hello"))
    result, _ = run_roles(script, "talker", "listener")
    assert result.results["L"]["got"] == "hello"
    assert result.time == 2.0  # the expiry timer was cancelled, not awaited


def test_receive_timeout_retry_loop_survives_a_late_sender():
    result, _ = run_roles(retrying_listener(1.0), "talker", "listener")
    attempts, value = result.results["L"]["got"]
    assert attempts == 3 and value == 42


def test_role_receive_with_sender_reports_the_partner_role():
    script = timed_listener(10.0, talk=(1.0, "hi"), with_sender=True)
    result, _ = run_roles(script, "talker", "listener")
    assert result.results["L"]["got"] == ("hi", "talker")


def test_crash_of_the_named_partner_ends_a_timed_receive_unfilled():
    # The talker would send at t=5; it crashes at t=2 while the listener
    # waits on it, and is demoted to absence (the listener alone is
    # critical), so the receive returns UNFILLED at once.
    script = timed_listener(50.0, talk=(5.0, "late"), source="talker")
    result, scheduler = run_roles(script, "talker", "listener",
                                  plan=FaultPlan().crash(2.0, "T"))
    assert result.results["L"]["got"] is UNFILLED
    assert result.killed == ["T"]
    assert result.time == 2.0
    assert scheduler.pending_timer_count == 0


def test_select_timeout_arm_fires_when_nothing_commits():
    def chooser():
        result = yield Select([Receive("ghost")], timeout=2.5)
        return result.index

    result = run_processes({"chooser": chooser()})
    assert result.results["chooser"] == TIMED_OUT_BRANCH
    assert result.time == 2.5


def test_select_timeout_arm_loses_to_a_ready_branch():
    def chooser():
        result = yield Select([Receive("friend")], timeout=9.0)
        return result.index, result.value

    def friend():
        yield Send("chooser", "on time")

    result = run_processes({"chooser": chooser(), "friend": friend()})
    assert result.results["chooser"] == (0, "on time")
    assert result.time == 0.0


def test_immediate_select_rejects_timeout():
    with pytest.raises(ValueError):
        Select([Receive("x")], immediate=True, timeout=1.0)


def test_negative_timeouts_rejected():
    with pytest.raises(ValueError):
        Select([Receive("x")], timeout=-2.0)


def test_expired_timeout_leaves_no_board_residue():
    scheduler = Scheduler()

    def lonely():
        result = yield Select([Receive()], timeout=1.0)
        assert result.index == TIMED_OUT_BRANCH
        yield Delay(1.0)  # keep running after the expiry

    scheduler.spawn("lonely", lonely())
    scheduler.run()
    assert scheduler.board_size == 0
    assert scheduler.waiter_count == 0
    assert scheduler.pending_timer_count == 0


def test_long_drop_window_delivers_every_broadcast_message():
    # A drop window only slows delivery down, however many retries
    # (here 8 per message) it forces.
    run = lookup("broadcast").run(
        0, plan=FaultPlan().drop(0.1, 8, until=50.0))
    assert run.outcome == "completed"
    check_all(run.events)
