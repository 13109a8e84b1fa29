"""PerformanceRetry: budget accounting driven by trace events."""

from types import SimpleNamespace

import pytest

from repro.errors import RecoveryError
from repro.recovery import PerformanceRetry
from repro.runtime import EventKind, Scheduler


def rig(max_retries=1, **kwargs):
    scheduler = Scheduler(seed=0)
    instance = SimpleNamespace(name="rig", scheduler=scheduler)
    retry = PerformanceRetry(instance, max_retries=max_retries, **kwargs)
    return scheduler, retry


def recovery_actions(scheduler):
    return [(e.get("action"), e.get("performance"))
            for e in scheduler.tracer.events
            if e.kind is EventKind.RECOVERY]


def test_abort_grants_a_retry_and_bumps_the_epoch():
    scheduler, retry = rig(max_retries=2)
    scheduler.tracer.emit(1.0, EventKind.PERFORMANCE_ABORT, None,
                          performance="rig/p1")
    assert retry.retries == 1
    assert retry.epoch == 1
    assert not retry.exhausted
    assert recovery_actions(scheduler) == [("performance_retry", "rig/p1")]


def test_at_most_once_per_performance_id():
    scheduler, retry = rig(max_retries=5)
    for _ in range(3):   # the same abort replayed must bill only once
        scheduler.tracer.emit(1.0, EventKind.PERFORMANCE_ABORT, None,
                              performance="rig/p1")
    assert retry.retries == 1


def test_completion_after_grant_counts_as_recovered():
    scheduler, retry = rig()
    scheduler.tracer.emit(1.0, EventKind.PERFORMANCE_ABORT, None,
                          performance="rig/p1")
    scheduler.tracer.emit(2.0, EventKind.PERFORMANCE_END, None,
                          performance="rig/p2")
    assert retry.recovered == 1
    assert recovery_actions(scheduler) == [
        ("performance_retry", "rig/p1"),
        ("performance_recovered", "rig/p2")]
    # Further completions without a fresh grant are ordinary, not recoveries.
    scheduler.tracer.emit(3.0, EventKind.PERFORMANCE_END, None,
                          performance="rig/p3")
    assert retry.recovered == 1


def test_budget_exhaustion_flags_and_notifies():
    scheduler, retry = rig(max_retries=1)
    scheduler.tracer.emit(1.0, EventKind.PERFORMANCE_ABORT, None,
                          performance="rig/p1")
    scheduler.tracer.emit(2.0, EventKind.PERFORMANCE_ABORT, None,
                          performance="rig/p2")
    assert retry.exhausted
    assert retry.retries == 1
    assert recovery_actions(scheduler)[-1] == ("retry_exhausted", "rig/p2")
    # Once exhausted, later aborts change nothing.
    scheduler.tracer.emit(3.0, EventKind.PERFORMANCE_ABORT, None,
                          performance="rig/p3")
    assert retry.retries == 1


def test_zero_budget_exhausts_on_first_abort():
    scheduler, retry = rig(max_retries=0)
    scheduler.tracer.emit(1.0, EventKind.PERFORMANCE_ABORT, None,
                          performance="rig/p1")
    assert retry.exhausted
    assert retry.retries == 0


def test_other_instances_events_are_ignored():
    scheduler, retry = rig()
    scheduler.tracer.emit(1.0, EventKind.PERFORMANCE_ABORT, None,
                          performance="other/p1")
    assert retry.retries == 0
    assert recovery_actions(scheduler) == []


def test_detach_stops_listening_idempotently():
    scheduler, retry = rig()
    retry.detach()
    retry.detach()
    scheduler.tracer.emit(1.0, EventKind.PERFORMANCE_ABORT, None,
                          performance="rig/p1")
    assert retry.retries == 0


def test_negative_budget_rejected():
    scheduler = Scheduler(seed=0)
    instance = SimpleNamespace(name="rig", scheduler=scheduler)
    with pytest.raises(RecoveryError):
        PerformanceRetry(instance, max_retries=-1)
