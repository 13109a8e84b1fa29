"""Timed and conditional entry calls (Ada's select-on-the-caller-side)."""

import pytest

from repro.ada import TIMED_OUT, AdaSystem
from repro.runtime import Delay, Scheduler


def build():
    scheduler = Scheduler()
    return scheduler, AdaSystem(scheduler)


def test_timed_call_expires_when_never_accepted():
    scheduler, system = build()

    def busy_server(ctx):
        yield Delay(100)  # never accepts in time

    def client(ctx):
        result = yield from ctx.call("server", "e", timeout=10)
        return (result, scheduler.now)

    system.task("server", busy_server)
    system.task("client", client)
    run = scheduler.run()
    result, at = run.results["client"]
    assert result is TIMED_OUT
    assert at == 10


def test_timed_call_succeeds_before_deadline():
    scheduler, system = build()

    def server(ctx):
        yield Delay(3)
        yield from ctx.accept_do("e", lambda: "served")

    def client(ctx):
        result = yield from ctx.call("server", "e", timeout=10)
        return result

    system.task("server", server)
    system.task("client", client)
    run = scheduler.run()
    assert run.results["client"] == "served"


def test_expired_call_is_removed_from_queue():
    """After a timeout, the server must not see the stale call."""
    scheduler, system = build()

    def server(ctx):
        yield Delay(20)
        count_before = system.queue_length("server", "e")
        call = yield from ctx.accept("e")   # only the fresh call remains
        call.complete(call.args[0])
        return count_before

    def impatient(ctx):
        result = yield from ctx.call("server", "e", "stale", timeout=5)
        assert result is TIMED_OUT
        return "gave-up"

    def patient(ctx):
        yield Delay(10)
        result = yield from ctx.call("server", "e", "fresh")
        return result

    system.task("server", server)
    system.task("impatient", impatient)
    system.task("patient", patient)
    run = scheduler.run()
    assert run.results["impatient"] == "gave-up"
    assert run.results["patient"] == "fresh"
    assert run.results["server"] == 1


def test_conditional_call_with_zero_timeout():
    """timeout=0 is the conditional entry call: no waiting server, no call."""
    scheduler, system = build()

    def server(ctx):
        yield Delay(50)

    def client(ctx):
        result = yield from ctx.call("server", "e", timeout=0)
        return result

    system.task("server", server)
    system.task("client", client)
    run = scheduler.run()
    assert run.results["client"] is TIMED_OUT


def test_call_accepted_at_deadline_completes_anyway():
    """A rendezvous in progress at the deadline runs to completion —
    timed entry calls cancel queued calls, never accepted ones."""
    scheduler, system = build()

    def server(ctx):
        call = yield from ctx.accept("e")
        yield Delay(30)   # the accept body outlives the caller's deadline
        call.complete("slow-but-done")

    def client(ctx):
        result = yield from ctx.call("server", "e", timeout=10)
        return (result, scheduler.now)

    system.task("server", server)
    system.task("client", client)
    run = scheduler.run()
    result, at = run.results["client"]
    assert result == "slow-but-done"
    assert at == 30


def test_timed_out_sentinel_is_falsy_and_singleton():
    import repro.ada
    import repro.runtime
    from repro.runtime.effects import _TimedOut

    assert not TIMED_OUT
    assert _TimedOut() is TIMED_OUT
    assert repr(TIMED_OUT) == "TIMED_OUT"
    assert repro.ada.TIMED_OUT is repro.runtime.TIMED_OUT
