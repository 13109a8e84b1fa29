"""Latch waits: parked instead of polled, woken in poll order.

Most tests run twice, once with each wait parked on its :class:`Latch`
and once with the latch wrapped in a plain lambda, which the scheduler
polls; both must wake the same processes in the same order.
"""

import pytest

from repro.errors import DeadlockError
from repro.runtime import (Delay, GetTime, Latch, Scheduler, WaitUntil,
                           run_processes)


def parked(latch, description="latch"):
    return WaitUntil(latch, description)


def polled(latch, description="latch"):
    return WaitUntil(lambda: latch(), description)


WAITS = pytest.mark.parametrize("wait", [parked, polled],
                                ids=["parked", "polled"])


def test_latch_set_before_the_wait_is_ready_at_once():
    latch = Latch()
    latch.set()
    scheduler = Scheduler()
    parked_meanwhile = []

    def waiter():
        yield WaitUntil(latch, "set already")
        return "through"

    def observer():
        parked_meanwhile.append(scheduler.waiter_count)
        yield Delay(0)

    scheduler.spawn("waiter", waiter())
    scheduler.spawn("observer", observer())
    result = scheduler.run()
    assert result.results["waiter"] == "through"
    assert parked_meanwhile == [0]
    assert latch.is_set and latch() and not latch._parked


def test_setting_twice_queues_and_wakes_once():
    latch = Latch()
    scheduler = Scheduler()
    woken = []

    def waiter():
        yield WaitUntil(latch, "latch")
        woken.append((yield GetTime()))

    def setter():
        yield Delay(1)
        latch.set()
        latch.set()
        assert scheduler._fired == [latch]
        yield Delay(1)
        latch.set()
        assert scheduler._fired == []

    scheduler.spawn("waiter", waiter())
    scheduler.spawn("setter", setter())
    scheduler.run()
    assert woken == [1.0]
    assert scheduler.waiter_count == 0 and not latch._parked


@pytest.mark.parametrize("remove", ["kill", "interrupt", "kill-after-set"])
def test_removed_waiter_leaves_no_residue(remove):
    latch = Latch()
    scheduler = Scheduler()
    outcome = []

    def waiter():
        try:
            yield WaitUntil(latch, "latch")
            outcome.append("woken")
        except RuntimeError:
            outcome.append("interrupted")
            yield Delay(5)
            outcome.append("after")

    def remover():
        yield Delay(1)
        if remove == "kill-after-set":
            latch.set()
        if remove == "interrupt":
            scheduler.interrupt("waiter", RuntimeError("stop"))
        else:
            scheduler.kill("waiter")
        assert scheduler.waiter_count == 0 and not latch._parked
        yield Delay(1)
        latch.set()
        assert not latch._parked

    scheduler.spawn("waiter", waiter())
    scheduler.spawn("remover", remover())
    result = scheduler.run()
    assert outcome == (["interrupted", "after"] if remove == "interrupt"
                       else [])
    assert scheduler.waiter_count == 0 and scheduler._fired == []
    assert ("waiter" in result.killed) == (remove != "interrupt")


@WAITS
def test_many_waiters_on_one_latch_wake_in_park_order(wait):
    latch = Latch()
    scheduler = Scheduler()
    woken = []

    def waiter(name, delay):
        yield Delay(delay)
        yield wait(latch)
        woken.append(name)

    def setter():
        yield Delay(5)
        latch.set()

    # Park order d, b, e, c, a: neither spawn nor name order.
    for name, delay in (("a", 3), ("b", 1), ("c", 2), ("d", 0), ("e", 1)):
        scheduler.spawn(name, waiter(name, delay))
    scheduler.spawn("setter", setter())
    scheduler.run()
    assert woken == ["d", "b", "e", "c", "a"]


@WAITS
def test_polled_waiter_between_latch_waiters_keeps_poll_order(wait):
    first, second = Latch(), Latch()
    box = {"ready": False}
    scheduler = Scheduler()
    woken = []

    def latch_waiter(name, latch, delay):
        yield Delay(delay)
        yield wait(latch)
        woken.append(name)

    def polled_waiter():
        yield Delay(1)
        yield WaitUntil(lambda: box["ready"], "box ready")
        woken.append("P")

    def setter():
        yield Delay(5)
        # Set order is neither park nor name order.
        first.set()
        box["ready"] = True
        second.set()

    scheduler.spawn("L1", latch_waiter("L1", second, 0))
    scheduler.spawn("P", polled_waiter())
    scheduler.spawn("L2", latch_waiter("L2", first, 2))
    scheduler.spawn("L3", latch_waiter("L3", second, 3))
    scheduler.spawn("setter", setter())
    scheduler.run()
    assert woken == ["L1", "P", "L2", "L3"]


def test_deadlock_text_for_a_latch_parked_process_is_unchanged():
    def message(wait):
        def stuck():
            yield wait(Latch(), "the latch")

        with pytest.raises(DeadlockError) as excinfo:
            run_processes({"stuck": stuck()})
        return str(excinfo.value)

    assert message(parked) == message(polled) == (
        "deadlock among 1 process(es): stuck: waiting until the latch")
