"""RestartPolicy: deterministic backoff, intensity cap, escalation paths."""

import random

import pytest

from repro.errors import RecoveryError
from repro.obs import RuntimeMetrics
from repro.recovery import BackoffSchedule, RestartPolicy
from repro.runtime import Delay, EventKind, Scheduler


def recovery_events(scheduler, action=None):
    events = [e for e in scheduler.tracer.events
              if e.kind is EventKind.RECOVERY]
    if action is not None:
        events = [e for e in events if e.get("action") == action]
    return events


def forever():
    while True:
        yield Delay(100.0)


def finite():
    # Long-lived but terminating: runs ending with this body still alive
    # quiesce once the final Delay elapses.
    yield Delay(100.0)
    return "survived"


# ---------------------------------------------------------------------------
# BackoffSchedule
# ---------------------------------------------------------------------------

def test_backoff_shape_without_jitter():
    schedule = BackoffSchedule(base=0.5, factor=2.0, cap=3.0, jitter=0.0)
    rng = random.Random(0)
    assert schedule.delay(0, rng) == 0.5
    assert schedule.delay(1, rng) == 1.0
    assert schedule.delay(2, rng) == 2.0
    assert schedule.delay(3, rng) == 3.0   # capped (would be 4.0)
    assert schedule.delay(9, rng) == 3.0


def test_backoff_jitter_is_bounded_and_seed_deterministic():
    schedule = BackoffSchedule(base=1.0, factor=1.0, cap=8.0, jitter=0.25)
    first = [schedule.delay(i, random.Random(7)) for i in range(5)]
    second = [schedule.delay(i, random.Random(7)) for i in range(5)]
    assert first == second          # pure function of the seed
    for delay in first:
        assert 1.0 <= delay <= 1.25


def test_backoff_validation():
    with pytest.raises(RecoveryError):
        BackoffSchedule(base=-1.0)
    with pytest.raises(RecoveryError):
        BackoffSchedule(factor=0.5)
    with pytest.raises(RecoveryError):
        BackoffSchedule(jitter=1.0)


def test_policy_validation():
    scheduler = Scheduler(seed=0)
    with pytest.raises(RecoveryError):
        RestartPolicy(scheduler, {}, max_restarts=0)
    with pytest.raises(RecoveryError):
        RestartPolicy(scheduler, {}, window=0.0)


# ---------------------------------------------------------------------------
# The intensity cap, proven exactly
# ---------------------------------------------------------------------------

def test_crash_loop_restarts_exactly_max_then_quarantines():
    """A crash-looping process gets exactly ``max_restarts`` restarts
    inside the window, then the next crash escalates to quarantine —
    visible in the trace AND the metrics registry."""
    scheduler = Scheduler(seed=0)
    metrics = RuntimeMetrics().attach(scheduler)
    policy = RestartPolicy(
        scheduler, {"W": forever},
        backoff=BackoffSchedule(base=1.0, factor=1.0, jitter=0.0),
        max_restarts=3, window=100.0, seed=0)
    scheduler.spawn("W", forever())
    # Restart delay is exactly 1.0, so kills at odd times always find the
    # process back up: crash -> restart -> crash -> ... -> 4th crash.
    for t in (1.0, 3.0, 5.0, 7.0):
        scheduler.kill_at(t, "W")
    scheduler.run()

    restarts = recovery_events(scheduler, "restart")
    assert len(restarts) == 3
    assert [e.get("total_restarts") for e in restarts] == [1, 2, 3]
    scheduled = recovery_events(scheduler, "restart_scheduled")
    assert [e.get("attempt") for e in scheduled] == [0, 1, 2]
    assert [e.get("delay") for e in scheduled] == [1.0, 1.0, 1.0]

    quarantines = recovery_events(scheduler, "quarantine")
    assert len(quarantines) == 1
    assert quarantines[0].process == "W"
    assert quarantines[0].get("restarts") == 3
    assert policy.quarantined == {"W"}
    assert policy.restarts == 3

    registry = metrics.registry
    assert registry.counter("recovery_restarts_total").value == 3
    assert registry.counter("recovery_quarantines_total").value == 1
    assert registry.histogram("recovery_backoff_delay").count == 3


def test_sliding_window_forgets_old_restarts():
    """Crashes spaced wider than the window never accumulate: the backoff
    attempt resets to 0 and quarantine stays unreachable."""
    scheduler = Scheduler(seed=0)
    RestartPolicy(
        scheduler, {"W": finite},
        backoff=BackoffSchedule(base=1.0, factor=2.0, jitter=0.0),
        max_restarts=2, window=3.0, seed=0)
    scheduler.spawn("W", finite())
    for t in (1.0, 10.0, 20.0, 30.0, 40.0):   # 5 crashes, cap is 2
        scheduler.kill_at(t, "W")
    scheduler.run()
    scheduled = recovery_events(scheduler, "restart_scheduled")
    assert [e.get("attempt") for e in scheduled] == [0, 0, 0, 0, 0]
    assert len(recovery_events(scheduler, "restart")) == 5
    assert not recovery_events(scheduler, "quarantine")


# ---------------------------------------------------------------------------
# Skip / abandon paths
# ---------------------------------------------------------------------------

def test_restart_skipped_when_name_already_running():
    scheduler = Scheduler(seed=0)
    policy = RestartPolicy(
        scheduler, {"W": finite},
        backoff=BackoffSchedule(base=1.0, jitter=0.0), seed=0)
    scheduler.spawn("W", finite())
    scheduler.kill_at(1.0, "W")
    # The harness brings W back itself at t=1.5, before the policy's
    # t=2.0 timer fires; the policy must notice and stand down.
    scheduler.schedule_at(1.5, lambda: scheduler.respawn("W", finite()))
    scheduler.run()
    assert len(recovery_events(scheduler, "restart_skipped")) == 1
    assert policy.restarts == 0


def test_restart_abandoned_when_only_while_flips():
    scheduler = Scheduler(seed=0)
    alive = {"flag": True}
    policy = RestartPolicy(
        scheduler, {"W": forever},
        backoff=BackoffSchedule(base=1.0, jitter=0.0), seed=0,
        only_while=lambda: alive["flag"])
    scheduler.spawn("W", forever())
    scheduler.kill_at(1.0, "W")
    scheduler.schedule_at(1.5, lambda: alive.update(flag=False))
    scheduler.run()
    assert len(recovery_events(scheduler, "restart_scheduled")) == 1
    assert len(recovery_events(scheduler, "restart_abandoned")) == 1
    assert policy.restarts == 0


def test_crash_ignored_when_only_while_already_false():
    scheduler = Scheduler(seed=0)
    RestartPolicy(scheduler, {"W": forever}, seed=0,
                  only_while=lambda: False)
    scheduler.spawn("W", forever())
    scheduler.kill_at(1.0, "W")
    scheduler.run()
    assert not recovery_events(scheduler)


def test_unmanaged_and_stopped_crashes_are_ignored():
    scheduler = Scheduler(seed=0)
    # The policy stops managing at t=2, the way a harness whose goal is
    # met stops it.
    policy = RestartPolicy(scheduler, {"W": forever}, seed=0,
                           only_while=lambda: scheduler.now < 2.0)
    scheduler.spawn("other", forever())
    scheduler.spawn("W", forever())
    scheduler.kill_at(1.0, "other")   # not managed
    scheduler.kill_at(3.0, "W")       # managed, but policy stopped
    scheduler.run()
    assert not recovery_events(scheduler)
    assert policy.restarts == 0


def test_respawned_process_runs_a_fresh_body():
    scheduler = Scheduler(seed=0)
    lives = []

    def body():
        lives.append(len(lives))
        yield Delay(100.0)
        return "survived"

    RestartPolicy(scheduler, {"W": body},
                  backoff=BackoffSchedule(base=1.0, jitter=0.0), seed=0)
    scheduler.spawn("W", body())
    scheduler.kill_at(1.0, "W")
    result = scheduler.run()
    assert lives == [0, 1]            # one original, one restart
    assert result.results["W"] == "survived"
    # The original kill is still visible in the run result.
    assert "W" in result.killed


# ---------------------------------------------------------------------------
# resume_from_journal: recovery decisions made durable before acting
# ---------------------------------------------------------------------------

class BarrierSpy:
    """Counts durability barriers, like a journal recorder would take."""

    def __init__(self):
        self.barriers = 0

    def barrier(self):
        self.barriers += 1


def test_resume_from_journal_barriers_every_recovery_decision():
    """With a journal, every RECOVERY trace emission is
    preceded by a journal barrier: scheduled restarts, executed restarts
    and the quarantine escalation all hit disk before the world moves."""
    scheduler = Scheduler(seed=0)
    journal = BarrierSpy()
    RestartPolicy(
        scheduler, {"W": forever},
        backoff=BackoffSchedule(base=1.0, factor=1.0, jitter=0.0),
        max_restarts=2, window=100.0, seed=0, journal=journal)
    scheduler.spawn("W", forever())
    for t in (1.0, 3.0, 5.0):
        scheduler.kill_at(t, "W")
    scheduler.run()

    decisions = len(recovery_events(scheduler))
    assert decisions > 0
    assert journal.barriers == decisions
