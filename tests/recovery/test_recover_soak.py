"""Recovery soak: liveness under a sender-killing plan, deterministically."""

import pytest

from repro.errors import ChaosInvariantError
from repro.faults import FaultPlan, soak, verify_determinism
from repro.recovery import run_recover_broadcast
from repro.recovery.soak import RECOVER_ROUNDS as ROUNDS


def test_single_seed_recovers_and_traces_recovery_events():
    run = run_recover_broadcast(0)
    assert run.counters["completed"] >= ROUNDS
    assert run.counters["restarts"] >= 1   # the plan always crashes the sender
    assert run.killed                  # the kills survive the respawns
    assert "recovery" in run.trace     # RECOVERY events render in the trace


def test_soak_exercises_abort_and_retry_paths():
    # Over a small consecutive-seed sweep, at least one plan must land a
    # post-seal sender crash (abort -> retry -> recovered); otherwise the
    # soak silently stops testing the retry machinery.
    report = soak("recover", runs=10, seed=0)
    assert report.counters["completed"] >= report.runs * ROUNDS
    # Every plan kills the sender.
    assert report.counters["restarts"] >= report.runs
    assert report.aborts > 0
    assert report.counters["retries"] > 0
    assert report.counters["recovered"] > 0
    assert report.base_trace            # first seed's trace kept for CI
    lines = report.lines()
    assert any("restarts" in line for line in lines)


def test_same_seed_replays_byte_identically():
    assert verify_determinism("recover", 0)


def test_regression_seed_138_pre_seal_refill_then_crash():
    # Seed 138's plan crashes the sender pre-seal, refills the role via a
    # restart, then crashes a recipient post-seal.  The stale crashed-set
    # entry for the refilled sender used to poison the absent-fallback
    # dead set and wedge the run; see ScriptInstance._assign.
    run = run_recover_broadcast(138)
    assert run.counters["completed"] >= ROUNDS


def test_a_crash_loop_past_the_cap_raises_instead_of_reporting():
    # The cap covers the one sender crash (two restarts per name); a
    # recipient crashed four times escalates to quarantine, which the
    # runner raises like any other liveness failure.  Generated plans
    # crash each recipient at most once, so only a given plan gets here.
    plan = FaultPlan().crash(3.0, "S")
    for t in (1.0, 4.0, 7.0, 10.0):
        plan.crash(t, ("R", 1))
    with pytest.raises(ChaosInvariantError,
                       match=r"intensity cap escalated \[\('R', 1\)\] "
                             r"despite a covering budget") as excinfo:
        run_recover_broadcast(0, plan=plan)
    assert excinfo.value.category == "liveness"
