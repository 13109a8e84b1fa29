"""Recovery soak: liveness under a sender-killing plan, deterministically."""

from repro.faults import FaultPlan, soak, verify_determinism
from repro.recovery import run_recover_broadcast
from repro.recovery.soak import RECOVER_ROUNDS as ROUNDS
from repro.scenarios import lookup


def test_single_seed_recovers_and_traces_recovery_events():
    run = lookup("recover").run(0)
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
    # This plan (the one seed 138 drew before plans came from the
    # contract) crashes the sender pre-seal, refills the role via a
    # restart, then crashes a recipient post-seal.  The stale crashed-set
    # entry for the refilled sender used to poison the absent-fallback
    # dead set and wedge the run; see ScriptInstance._assign.
    plan = (FaultPlan().crash(3.096, ("R", 2))
            .partition(3.125, "hub", ("leaf", 3), heal_at=4.142)
            .crash(4.3, "S").drop(9.007, 1, until=12.648)
            .slow(11.082, 3.7, until=14.635).crash(11.293, "S")
            .crash(17.277, ("R", 1)))
    assert len(plan) == 10
    run = run_recover_broadcast(138, plan=plan)
    assert run.counters["completed"] >= ROUNDS
