"""Latch-parked enrollment waits against polled ones: identical traces.

``ScriptInstance.enroll`` waits on latches — ``EnrollmentRequest.accepted``
and, under delayed termination, ``Performance.finished`` — which the
scheduler parks instead of polling.  Patching
``repro.core.instance.WaitUntil`` to wrap each predicate in a plain lambda
makes the same waits polled.  The wake-order invariant says both runs
produce the same trace, frame for frame, on every scenario: broadcasts of
each strategy and size, Figure 5 with ``withdraw_when`` managers (polled
waits next to parked ones), a supervised star whose aborts release
latch-parked survivors, and chatroom chaos with crashes and aborts.
"""

import json
import random

import pytest

import repro.core.instance as instance_module
from repro.errors import DeadlockError, PerformanceAborted
from repro.lang import compile_script
from repro.lang.figures import FIGURE5_DATABASE
from repro.net import NetworkTransport, star
from repro.persist.record import event_record
from repro.runtime import Delay, EventKind, Scheduler, WaitUntil
from repro.scenarios import lookup
from repro.scripts.broadcast import make_broadcast

SEEDS = range(20)


def frames(events):
    """The trace as canonical journal-frame JSON, one line per event."""
    return [json.dumps(event_record(e), sort_keys=True) for e in events]


def polled_wait(predicate, description="condition"):
    return WaitUntil(lambda: predicate(), description)


def assert_polled_equals_parked(monkeypatch, run):
    shipped = run()
    with monkeypatch.context() as patch:
        patch.setattr(instance_module, "WaitUntil", polled_wait)
        polled = run()
    assert shipped == polled


def broadcast_frames(strategy, n, seed, rounds=3):
    rng = random.Random(seed)
    script = make_broadcast(n, strategy)
    scheduler = Scheduler(seed=seed)
    instance = script.instance(scheduler, name=f"{strategy}-broadcast")

    def sender():
        for r in range(rounds):
            yield Delay(rng.choice((0, 0, 1, 2)))
            yield from instance.enroll("sender", data=f"v{r}")

    def recipient(i, delays):
        for delay in delays:
            yield Delay(delay)
            yield from instance.enroll(("recipient", i))

    scheduler.spawn("T", sender())
    for i in range(1, n + 1):
        delays = [rng.choice((0, 0, 1, 2)) for _ in range(rounds)]
        scheduler.spawn(("R", i), recipient(i, delays))
    scheduler.run()
    assert instance.performance_count == rounds
    return frames(scheduler.tracer.events)


FIGURE5 = compile_script(FIGURE5_DATABASE)


def figure5_frames(seed, ops=6):
    rng = random.Random(seed)
    scheduler = Scheduler(seed=seed)
    instance = FIGURE5.instance(scheduler, name="fig5")
    clients_left = [2]

    def manager(i):
        while (yield from instance.enroll(
                ("manager", i),
                withdraw_when=lambda: clients_left[0] == 0)) is not None:
            pass

    def client(role):
        for k in range(ops):
            request = ("lock", "release")[k % 2]
            yield Delay(rng.choice((0, 0, 1, 2)))
            yield from instance.enroll(role, id=role, request=request,
                                       data=f"item-{rng.randrange(3)}")
        clients_left[0] -= 1

    for i in (1, 2, 3):
        scheduler.spawn(("M", i), manager(i))
    for role in ("reader", "writer"):
        scheduler.spawn(role, client(role))
    scheduler.run()
    assert instance.performance_count >= ops
    return frames(scheduler.tracer.events)


def supervised_star_frames(seed, survivors_parked, n=5):
    """A delayed-termination star over a network, one seeded crash.

    Recipients whose body finished wait on ``performance.finished``; an
    abort must release them through the latch.
    """
    rng = random.Random(seed)
    scheduler = Scheduler(seed=seed)
    placement = {"T": "hub"}
    placement.update({("R", i): ("leaf", i) for i in range(1, n + 1)})
    scheduler.transport = NetworkTransport(star(n), placement)
    instance = make_broadcast(n, "star").instance(scheduler, name="star")
    instance.supervise()

    def count_parked(event):
        # Emitted by the abort just before it releases the survivors.
        if event.kind is EventKind.PERFORMANCE_ABORT:
            performance, = [p for p in instance.performances
                            if p.id == event.get("performance")]
            survivors_parked.append(len(performance.finished._parked))

    scheduler.tracer.add_listener(count_parked)

    def enrolling(role, **actuals):
        try:
            return (yield from instance.enroll(role, **actuals))
        except PerformanceAborted:
            return "aborted"

    scheduler.spawn("T", enrolling("sender", data="payload"))
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), enrolling(("recipient", i)))
    victim = rng.choice(["T"] + [("R", i) for i in range(1, n + 1)])
    scheduler.kill_at(round(rng.uniform(0.5, n - 0.5), 3), victim)
    scheduler.run()
    return frames(scheduler.tracer.events)


@pytest.mark.parametrize("n", [3, 8, 20])
@pytest.mark.parametrize("strategy", ["star", "pipeline", "tree"])
def test_broadcasts_trace_equal_polled_and_parked(monkeypatch, strategy, n):
    for seed in SEEDS:
        assert_polled_equals_parked(
            monkeypatch, lambda: broadcast_frames(strategy, n, seed))


def test_figure5_with_withdrawing_managers_trace_equal(monkeypatch):
    for seed in SEEDS:
        assert_polled_equals_parked(monkeypatch,
                                    lambda: figure5_frames(seed))


def test_supervised_aborts_release_parked_survivors_trace_equal(monkeypatch):
    survivors_parked = []
    for seed in SEEDS:
        shipped = supervised_star_frames(seed, survivors_parked)
        with monkeypatch.context() as patch:
            patch.setattr(instance_module, "WaitUntil", polled_wait)
            assert supervised_star_frames(seed, []) == shipped
    # Some abort found finished survivors parked on the latch.
    assert max(survivors_parked) > 0


def test_chatroom_chaos_trace_equal(monkeypatch):
    kinds = set()
    for seed in SEEDS:
        def run():
            return frames(lookup("chatroom").run(seed).events)
        shipped = run()
        kinds.update(json.loads(frame)["kind"] for frame in shipped)
        with monkeypatch.context() as patch:
            patch.setattr(instance_module, "WaitUntil", polled_wait)
            assert run() == shipped
    assert {EventKind.ROLE_CRASH.value,
            EventKind.PERFORMANCE_ABORT.value} <= kinds


def test_pooled_enrollment_parks_on_its_latch():
    scheduler = Scheduler()
    instance = make_broadcast(2, "star").instance(scheduler, name="star")

    def recipient():
        yield from instance.enroll(("recipient", 1))

    scheduler.spawn("R1", recipient())
    with pytest.raises(DeadlockError,
                       match=r"R1: waiting until enrollment in star"):
        scheduler.run()
    (request,) = instance.pool
    assert scheduler.waiter_count == 1 and not scheduler._polled
    assert list(request.accepted._parked) == ["R1"]
