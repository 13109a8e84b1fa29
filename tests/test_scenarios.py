"""Tool x scenario matrix: every tool runs on every catalogue entry it
applies to, and rejects the others by naming the entries that would do.

Parametrized over the catalogue itself, so a new entry is covered here
without editing this file.
"""

import importlib
import json

import pytest

from repro.__main__ import main
from repro.errors import ChaosInvariantError, PersistError
from repro.faults import FaultPlan, plan_for_seed, soak, verify_determinism
from repro.faults.explore import (Counterexample, FaultSchedule,
                                  check_saved_schedule, explore)
from repro.obs import Profiler, run_scenario
from repro.persist import kill9_resume, record_run, resume
from repro.runtime import format_trace
from repro.scenarios import lookup, names
from repro.verification import check_all

FAULTED = names(faulted=True)


def test_catalogue_partitions():
    assert len(names()) == len(set(names()))
    assert set(FAULTED) <= set(names())
    assert FAULTED and set(names()) - set(FAULTED)
    assert all(lookup(name).contract is None
               for name in set(names()) - set(FAULTED))


# ---------------------------------------------------------------------------
# Every entry: the paper's properties, trace, stats, profile, record/replay,
# kill -9
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", names())
def test_every_run_keeps_the_papers_properties(name):
    scenario = lookup(name)
    for seed in range(5):
        check_all(scenario.run(seed, **scenario.sized(3)).events)


@pytest.mark.parametrize("name", names())
def test_trace_stats_and_profile_cli(name, tmp_path, capsys):
    trace, profile = tmp_path / "trace.json", tmp_path / "profile.json"
    assert main(["trace", name, "--n", "3", "--out", str(trace)]) == 0
    assert json.loads(trace.read_text())["traceEvents"]
    capsys.readouterr()
    assert main(["stats", name, "--n", "3", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["metrics"]["performances_started"]["value"] > 0
    assert main(["profile", name, "--n", "3", "--deterministic",
                 "--json", str(profile)]) == 0
    report = json.loads(profile.read_text())
    assert (report["scenario"], report["seed"], report["n"]) == (name, 0, 3)


@pytest.mark.parametrize("name", names())
def test_instrumented_trace_equals_plain_trace(name):
    scenario = lookup(name)
    for seed in range(5):
        plain = scenario.run(seed, **scenario.sized(3))
        instrumented = run_scenario(name, seed=seed, n=3,
                                    profiler=Profiler())
        assert (format_trace(instrumented.scheduler.tracer)
                == plain.trace), seed


@pytest.mark.parametrize("name", names())
def test_record_then_resume_validates_every_frame(name, tmp_path):
    path = tmp_path / f"{name}.jrnl"
    record_run(name, 1, path, options=lookup(name).sized(3))
    report = resume(path, expect_scenario=name)
    assert report.complete and not report.torn
    assert report.journal_frames > 2
    assert report.fresh == 0


@pytest.mark.parametrize("name", names())
def test_kill9_resume_reproduces_the_oracle(name, tmp_path):
    report = kill9_resume(name, 0, tmp_path,
                          options=lookup(name).sized(3))
    assert report.ok, report.lines()


# ---------------------------------------------------------------------------
# Entries with a fault contract: soak, --verify, --describe-plan, --explore
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", FAULTED)
def test_plan_for_seed_is_the_plan_a_planless_run_installs(name):
    scenario = lookup(name)
    for seed in range(20):
        plan = plan_for_seed(name, seed)
        planless = scenario.run(seed)
        assert plan.describe() == planless.faults, seed
        # Handed the printed plan, the run is the plan-less run.
        assert scenario.run(seed, plan=plan).trace == planless.trace, seed


@pytest.mark.parametrize("name", FAULTED)
def test_soak_and_determinism(name):
    assert verify_determinism(name, seed=0)
    report = soak(name, runs=2, seed=0)
    assert sum(report.outcomes.values()) == 2


@pytest.mark.parametrize("name", names())
def test_chaos_modes_that_need_a_plan(name, capsys):
    code = main(["chaos", name, "--describe-plan", "--seed", "1"])
    if name in FAULTED:
        assert code == 0
        assert f"fault plan: {name}, seed 1" in capsys.readouterr().out
    else:
        assert code == 2
        err = capsys.readouterr().err
        assert "has no fault contract" in err
        assert all(other in err for other in FAULTED)
        assert main(["chaos", name, "--runs", "1"]) == 2
        assert main(["chaos", name, "--explore", "--budget", "1"]) == 2
        assert "has no fault contract" in capsys.readouterr().err


@pytest.mark.parametrize("name", names())
def test_explore_runs_on_explorable_entries_only(name):
    if name in FAULTED:
        assert explore(name, budget=4).ok
        return
    with pytest.raises(ChaosInvariantError,
                       match="has no fault contract") as info:
        explore(name, budget=4)
    assert all(other in str(info.value) for other in FAULTED)


def test_chaos_recover_explore_is_green(capsys):
    assert main(["chaos", "recover", "--explore", "--budget", "2"]) == 0
    out = capsys.readouterr().out
    assert "fault exploration: recover, budget 2" in out
    assert "every schedule passed every oracle" in out


def test_unknown_names_are_refused_by_every_tool(tmp_path):
    with pytest.raises(ChaosInvariantError, match="unknown scenario"):
        soak("teleport", runs=1)
    with pytest.raises(ChaosInvariantError, match="unknown scenario"):
        explore("teleport", budget=1)
    with pytest.raises(ChaosInvariantError, match="unknown scenario"):
        plan_for_seed("teleport", 0)
    with pytest.raises(PersistError, match="unknown scenario"):
        record_run("teleport", 0, tmp_path / "x.jrnl")
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("teleport")
    for argv in (["trace", "teleport"], ["stats", "teleport"],
                 ["profile", "teleport"], ["chaos", "teleport"]):
        with pytest.raises(SystemExit):
            main(argv)


# ---------------------------------------------------------------------------
# Fixed defects: sizes reach every explore run; explore journals replay;
# the recover entry is what `chaos recover --kill9` runs
# ---------------------------------------------------------------------------

def _spy_on_chaos_broadcast(monkeypatch):
    """Record the keyword arguments of every catalogue run of
    ``broadcast``: the catalogue resolves its runner when looked up."""
    # The package re-exports a ``soak`` function over its module name.
    chaos = importlib.import_module("repro.faults.soak")
    runner, calls = chaos.run_chaos_broadcast, []

    def spy(seed, **options):
        calls.append(options)
        return runner(seed, **options)

    monkeypatch.setattr(chaos, "run_chaos_broadcast", spy)
    return calls


def test_explore_sizes_reach_every_run(monkeypatch):
    calls = _spy_on_chaos_broadcast(monkeypatch)
    report = explore("broadcast", seed=0, n=6, budget=40)
    assert report.ok
    assert len(calls) == report.runs > 40
    assert all(call["n"] == 6 for call in calls)
    assert any("('R', 6)" in line or "('leaf', 6)" in line
               for line in report.schedule_log)


def test_explore_sizes_shape_the_frontier():
    report = explore("lock", seed=0, clients=2, budget=30)
    assert report.ok
    assert any("('client', 2)" in line for line in report.schedule_log)
    assert not any("('client', 3)" in line for line in report.schedule_log)


def test_counterexample_sizes_replay(monkeypatch, tmp_path):
    schedule = FaultSchedule(family="crash",
                             plan=FaultPlan().crash(5.0, ("R", 6)))
    counterexample = Counterexample(
        scenario="broadcast", seed=0, oracle="residue", detail="",
        schedule=schedule, original_events=1, shrink_runs=0,
        sizes={"n": 6})
    path = tmp_path / "ce.json"
    path.write_text(json.dumps(counterexample.to_jsonable()))
    calls = _spy_on_chaos_broadcast(monkeypatch)
    check = check_saved_schedule(str(path))
    assert not check.reproduced
    assert calls and all(call["n"] == 6 for call in calls)


def test_replay_accepts_journals_written_by_explore(tmp_path, capsys):
    explore("broadcast", seed=0, budget=3, workdir=str(tmp_path))
    assert main(["replay", str(tmp_path / "run-0.journal")]) == 0
    out = capsys.readouterr().out
    assert "resume: broadcast seed 0" in out
    assert "0 fresh frame(s)" in out


def test_chaos_recover_kill9_runs_the_recover_entry(tmp_path, capsys):
    assert main(["chaos", "recover", "--kill9", "--seed", "0",
                 "--journal", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "kill9: recover seed 0" in out
    assert "identical to oracle" in out
    assert (tmp_path / "oracle-recover-0.jrnl").exists()
