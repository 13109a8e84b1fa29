"""Fault-space exploration: probe, frontier, oracles, shrinking, replay."""

import json

import pytest

from repro.core.supervision import Supervisor
from repro.faults.explore import (ORACLES, FaultSchedule,
                                  check_saved_schedule, explore,
                                  injection_points)
from repro.faults.plan import FaultPlan
from repro.faults.soak import run_chaos_broadcast
from repro.persist import JournalRecorder, read_journal
from repro.recovery import RestartPolicy
from repro.scenarios import names


# ---------------------------------------------------------------------------
# The probe: injection points come from a fault-free run's journal
# ---------------------------------------------------------------------------

def probe(tmp_path, seed):
    """Journal a fault-free broadcast; its frames and their points."""
    path = tmp_path / f"base-{seed}.jrnl"
    recorder = JournalRecorder(path, seed=seed, scenario="broadcast")
    run_chaos_broadcast(seed, plan=FaultPlan(), journal=recorder)
    frames = read_journal(path).frames
    return frames, injection_points(frames)


def test_probe_enumerates_points_from_a_fault_free_run(tmp_path):
    frames, points = probe(tmp_path, 0)
    kinds = {point.kind for point in points}
    assert kinds <= {"commit", "enroll", "recovery", "timer"}
    assert {"commit", "enroll", "timer"} <= kinds
    # Points arrive sorted and deduplicated — the frontier's anchor order
    # must not depend on dict/set iteration.
    assert points == sorted(
        points, key=lambda p: (p.time, p.kind, p.subject))
    assert len(set(points)) == len(points)
    assert len(frames) + 1 > 2        # header + end + real traffic
    assert frames[-1]["status"] == "completed"


def test_probe_is_deterministic_per_seed(tmp_path):
    first_frames, first = probe(tmp_path, 5)
    second_frames, second = probe(tmp_path, 5)
    assert first == second
    assert len(first_frames) == len(second_frames)


# ---------------------------------------------------------------------------
# Determinism pin: same seed + budget => identical exploration
# ---------------------------------------------------------------------------

def test_exploration_is_deterministic():
    first = explore("broadcast", seed=3, budget=20)
    second = explore("broadcast", seed=3, budget=20)
    assert first.schedule_log == second.schedule_log
    assert first.points == second.points
    assert first.verdicts == second.verdicts
    assert first.families == second.families
    assert first.runs == second.runs
    assert first.base_trace == second.base_trace


def test_different_seed_explores_a_different_frontier():
    first = explore("broadcast", seed=3, budget=20)
    other = explore("broadcast", seed=4, budget=20)
    assert first.schedule_log != other.schedule_log


# ---------------------------------------------------------------------------
# All oracles green on the unmodified runtime
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", sorted(names(faulted=True)))
def test_explorer_green_on_unmodified_runtime(scenario):
    report = explore(scenario, seed=0, budget=12)
    assert report.ok
    assert f"  oracles       {', '.join(ORACLES)}" in report.lines()
    assert report.schedules == 12
    assert report.verdicts["pass"] == 12
    assert report.verdicts.get("fail", 0) == 0
    # The base run, then every schedule journaled and resumed.
    assert report.runs == 1 + 2 * report.schedules


# ---------------------------------------------------------------------------
# The planted regression: found, shrunk, replayable, and fixable
# ---------------------------------------------------------------------------

def test_planted_regression_found_shrunk_and_replayed(monkeypatch, tmp_path):
    end_aborted = Supervisor._end_aborted
    monkeypatch.setattr(Supervisor, "_end_aborted",
                        lambda self, performance: None)
    report = explore("broadcast", seed=0, budget=90)
    ce = report.counterexample
    assert ce is not None, "explorer missed the planted regression"
    assert ce.oracle == "residue"
    assert "never ended" in ce.detail
    # Shrunk to a locally minimal schedule: the acceptance bar is <= 3
    # fault events; ddmin takes this one all the way to a single crash.
    assert ce.schedule.plan is not None
    assert len(ce.schedule.plan) <= 3
    assert report.verdicts["fail"] == 1

    # The JSON artifact replays to the same failure...
    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(ce.to_jsonable(), sort_keys=True))
    check = check_saved_schedule(str(path))
    assert check.reproduced
    assert check.failures[0][0] == "residue"
    assert str(path) in ce.repro_command(str(path))

    # ...and stops reproducing once the regression is reverted.
    monkeypatch.setattr(Supervisor, "_end_aborted", end_aborted)
    fixed = check_saved_schedule(str(path))
    assert not fixed.reproduced


def test_planted_recovery_bug_found_shrunk_and_replayed(monkeypatch,
                                                        tmp_path):
    # A restart policy that schedules restarts but never respawns: the
    # crashed sender never comes back, so recipients wait forever.
    respawn = RestartPolicy._respawn
    monkeypatch.setattr(RestartPolicy, "_respawn",
                        lambda self, name: None)
    report = explore("recover", seed=0, budget=90)
    ce = report.counterexample
    assert ce is not None, "explorer missed the planted recovery bug"
    assert ce.oracle == "convergence"
    assert "deadlock" in ce.detail and "'sender'" in ce.detail
    assert [(event.kind, event.target) for event in ce.schedule.plan] \
        == [("crash", "S")]
    assert report.verdicts["fail"] == 1

    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps(ce.to_jsonable(), sort_keys=True))
    check = check_saved_schedule(str(path))
    assert check.reproduced
    assert check.failures[0][0] == "convergence"

    monkeypatch.setattr(RestartPolicy, "_respawn", respawn)
    assert not check_saved_schedule(str(path)).reproduced


def test_counterexample_schedule_round_trips_through_json():
    schedule = FaultSchedule(
        family="crash", plan=FaultPlan().crash(6.0, "S").partition(
            7.0, "hub", ("leaf", 1), heal_at=9.0))
    rebuilt = FaultSchedule.from_jsonable(
        json.loads(json.dumps(schedule.to_jsonable())))
    assert rebuilt.family == schedule.family
    assert rebuilt.plan.events == schedule.plan.events
    assert rebuilt.describe() == schedule.describe()


def test_check_saved_schedule_rejects_malformed_files(tmp_path):
    from repro.errors import ChaosInvariantError
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"scenario": "no-such-script"}))
    with pytest.raises(ChaosInvariantError, match="unknown scenario"):
        check_saved_schedule(str(path))
    path.write_text(json.dumps(["not", "a", "mapping"]))
    with pytest.raises(ChaosInvariantError, match="not a counterexample"):
        check_saved_schedule(str(path))
