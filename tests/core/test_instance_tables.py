"""A script instance keeps the shape it was created with, and its pool
stays in arrival order."""

import pytest

from repro.core import ScriptDef
from repro.runtime import Delay, EventKind, Scheduler


def _idle(ctx):
    yield from ()


def _created_sets(scheduler, instance):
    (event,) = [e for e in scheduler.tracer.events
                if e.kind is EventKind.INSTANCE_CREATED
                and e.get("instance") == instance.name]
    return event.get("critical_sets")


def _run_enrollments(scheduler, instances, roles):
    """Enroll each role in each instance; withdraw what is pooled at t=10."""
    stop = [False]

    def enrolling(instance, role):
        yield from instance.enroll(role, withdraw_when=lambda: stop[0])

    def stopper():
        yield Delay(10)
        stop[0] = True
        yield Delay(0)

    for instance in instances:
        for role in roles:
            scheduler.spawn((instance.name, role), enrolling(instance, role))
    scheduler.spawn("stopper", stopper())
    scheduler.run()


@pytest.mark.parametrize("change, roles, first, second", [
    (lambda script: script.critical_role_set("a"), ["a"],
     ([["a", "b"]], 0), ([["a"]], 1)),
    (lambda script: script.add_role("c", _idle), ["a", "b"],
     ([["a", "b"]], 1), ([["a", "b", "c"]], 0)),
], ids=["critical_role_set", "add_role"])
def test_instance_keeps_the_shape_it_was_created_with(change, roles, first,
                                                      second):
    script = ScriptDef("shape")
    script.add_role("a", _idle)
    script.add_role("b", _idle)
    scheduler = Scheduler(seed=0)
    before = script.instance(scheduler, name="before")
    change(script)
    after = script.instance(scheduler, name="after")
    _run_enrollments(scheduler, [before, after], roles)
    for instance, (sets, performances) in ((before, first), (after, second)):
        assert _created_sets(scheduler, instance) == sets
        assert instance.performance_count == performances
        assert instance.pending_count == 0


@pytest.mark.parametrize("event", ["submit", "withdraw", "crash"])
def test_pool_stays_in_arrival_order(event):
    """Givers with no taker pool up; the pool is read after ``event``."""
    script = ScriptDef("pair")
    script.add_role("giver", _idle)
    script.add_role("taker", _idle)
    scheduler = Scheduler(seed=0)
    instance = script.instance(scheduler)
    instance.supervise()
    stop = {"all": False, "P4": False}
    seen = []

    def giver(name, delay):
        yield Delay(delay)
        yield from instance.enroll(
            "giver", withdraw_when=lambda: stop["all"] or stop.get(name))

    def observer():
        yield Delay(10)
        if event == "withdraw":
            stop["P4"] = True
        yield Delay(10)
        seen.extend((r.seq, r.process) for r in instance.pool)
        stop["all"] = True
        yield Delay(0)

    # Arrival order differs from spawn order: P1 P3 P4 P0 P2.
    for index, delay in enumerate([3, 0, 4, 1, 2]):
        scheduler.spawn(f"P{index}", giver(f"P{index}", delay))
    scheduler.spawn("observer", observer())
    if event == "crash":
        scheduler.kill_at(10, "P4")
    scheduler.run()
    expected = ["P1", "P3", "P4", "P0", "P2"]
    if event != "submit":
        expected.remove("P4")
    assert [process for _, process in seen] == expected
    assert [seq for seq, _ in seen] == sorted(seq for seq, _ in seen)
