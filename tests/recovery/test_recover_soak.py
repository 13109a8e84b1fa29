"""Recovery soak: liveness under a sender-killing plan, deterministically."""

from repro.faults import verify_determinism
from repro.recovery import recover_soak, run_recover_broadcast


def test_single_seed_recovers_and_traces_recovery_events():
    run = run_recover_broadcast(0)
    assert run.completed >= run.rounds
    assert run.restarts >= 1           # the plan always crashes the sender
    assert run.killed                  # the kills stay visible post-reap
    assert "recovery" in run.trace     # RECOVERY events render in the trace
    assert not run.quarantined


def test_soak_exercises_abort_and_retry_paths():
    # Over a small consecutive-seed sweep, at least one plan must land a
    # post-seal sender crash (abort -> retry -> recovered); otherwise the
    # soak silently stops testing the retry machinery.
    report = recover_soak(runs=10, seed=0)
    assert report.completed >= report.runs * report.rounds
    assert report.restarts >= report.runs   # every plan kills the sender
    assert report.aborts > 0
    assert report.retries > 0
    assert report.recovered > 0
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
    assert run.completed >= run.rounds
    assert not run.quarantined
