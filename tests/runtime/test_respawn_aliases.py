"""Regression: respawn must release a finished record's stale aliases.

A finished process normally leaves the alias registry clean, but an extra
address (a role address added late) can survive on the dead record.  If
``respawn`` re-claimed the primary name without releasing the leftovers,
the registry would keep routing rendezvous for the stale address to the
dead record — and stay inconsistent with the old record's own alias set.
"""

import pytest

from repro.errors import RuntimeKernelError
from repro.runtime import Delay, Scheduler


def finite(tag="done"):
    yield Delay(1.0)
    return tag


def test_respawn_releases_stale_extra_alias():
    scheduler = Scheduler(seed=0)
    scheduler.spawn("W", finite())
    scheduler.run()
    # The finished record picks up a late extra address — the exotic path:
    # every normal finish already released its aliases, so this one is
    # exactly the stale leftover the regression is about.
    scheduler.add_alias("W", ("role", 1))
    assert scheduler.alias_owner[("role", 1)].name == "W"

    fresh = scheduler.respawn("W", finite())
    # The stale role address must be gone, not routed to the dead record.
    assert ("role", 1) not in scheduler.alias_owner
    # The fresh record owns its own name and nothing else.
    assert scheduler.alias_owner["W"] is fresh
    assert fresh.aliases == {"W"}
    scheduler.run()


def failing():
    yield Delay(1.0)
    raise ValueError("first life")


def test_respawn_snapshots_old_outcome():
    scheduler = Scheduler(seed=0, fail_fast=False)
    scheduler.spawn("W", finite("first"))
    scheduler.spawn("F", failing())
    scheduler.run()
    scheduler.respawn("W", finite("second"))
    scheduler.respawn("F", finite("second"))
    result = scheduler.run()
    # The new life's outcome wins the name, but the respawn snapshotted
    # the first life's outcome on the way: a failure stays reported.
    assert result.results["W"] == "second"
    assert result.results["F"] == "second"
    assert isinstance(result.failures["F"], ValueError)


def test_respawn_rejects_running_process():
    scheduler = Scheduler(seed=0)
    scheduler.spawn("W", finite())
    with pytest.raises(RuntimeKernelError, match="still running"):
        scheduler.respawn("W", finite())
    scheduler.run()


def test_respawn_after_kill_reports_the_kill():
    scheduler = Scheduler(seed=0)
    scheduler.spawn("W", finite())
    scheduler.kill_at(0.5, "W")
    scheduler.run()
    scheduler.respawn("W", finite())
    result = scheduler.run()
    # The kill that triggered the restart is still reported.
    assert "W" in result.killed
    assert result.results["W"] == "done"
