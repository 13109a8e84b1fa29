"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from repro.lang.figures import FIGURE3_STAR_BROADCAST


def test_figures_lists_all(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "fig4" in out and "fig5" in out


def test_show_prints_source(capsys):
    assert main(["show", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "SCRIPT star_broadcast" in out
    assert "ROLE sender" in out


def test_check_valid_file(tmp_path, capsys):
    path = tmp_path / "bc.script"
    path.write_text(FIGURE3_STAR_BROADCAST)
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "recipient[1..5]" in out


def test_check_invalid_file(tmp_path, capsys):
    path = tmp_path / "bad.script"
    path.write_text("SCRIPT s; ROLE a (); BEGIN SEND x TO ghost END a; "
                    "END s;")
    assert main(["check", str(path)]) == 2     # parse/semantic error
    err = capsys.readouterr().err
    assert "ghost" in err or "unknown" in err


def test_format_roundtrips(tmp_path, capsys):
    from repro.lang import parse_script

    path = tmp_path / "bc.script"
    path.write_text(FIGURE3_STAR_BROADCAST)
    assert main(["format", str(path)]) == 0
    printed = capsys.readouterr().out
    assert parse_script(printed).name == "star_broadcast"


def test_format_reports_parse_errors(tmp_path, capsys):
    path = tmp_path / "bad.script"
    path.write_text("SCRIPT ; nonsense")
    assert main(["format", str(path)]) == 2    # parse/semantic error
    assert "expected" in capsys.readouterr().err


def test_demo_broadcast(capsys):
    assert main(["demo", "broadcast", "--n", "3",
                 "--strategy", "pipeline"]) == 0
    out = capsys.readouterr().out
    assert out.count("'demo'") == 3


def test_demo_lock(capsys):
    assert main(["demo", "lock"]) == 0
    out = capsys.readouterr().out
    assert "granted" in out
    assert "denied" in out


def test_demo_election(capsys):
    assert main(["demo", "election", "--n", "4", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "leader 4" in out
    assert "True" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_lint_clean_file(tmp_path, capsys):
    path = tmp_path / "bc.script"
    path.write_text(FIGURE3_STAR_BROADCAST)
    assert main(["lint", str(path)]) == 0
    assert "no communication warnings" in capsys.readouterr().out


def test_lint_flags_orphan_send(tmp_path, capsys):
    path = tmp_path / "orphan.script"
    path.write_text(
        "SCRIPT s; ROLE a (x : item); BEGIN SEND x TO b END a; "
        "ROLE b (); BEGIN SKIP END b; END s;")
    assert main(["lint", str(path)]) == 1
    assert "never receives" in capsys.readouterr().out


ORDER_DEADLOCK = """SCRIPT order_deadlock;
  INITIATION: IMMEDIATE;
  TERMINATION: IMMEDIATE;
  ROLE left (VAR a : item);
  BEGIN
    SEND a TO right;
    RECEIVE a FROM right
  END left;
  ROLE right (VAR b : item);
  BEGIN
    SEND b TO left;
    RECEIVE b FROM left
  END right;
END order_deadlock;
"""

WARNING_ONLY = """SCRIPT warn_only;
  INITIATION: IMMEDIATE;
  TERMINATION: IMMEDIATE;
  CRITICAL: a;
  CRITICAL: a, b;
  ROLE a (x : item; flag : boolean);
  BEGIN
    IF flag THEN
      SEND x TO b
  END a;
  ROLE b (VAR y : item; flag : boolean);
  BEGIN
    IF flag THEN
      RECEIVE y FROM a
  END b;
END warn_only;
"""


def test_analyze_figures_are_clean(capsys):
    assert main(["analyze", "--figures"]) == 0
    out = capsys.readouterr().out
    assert "fig3: clean" in out
    assert "fig5: clean" in out
    # The summary uses the shared kv report layout.
    assert "analysis: 3 file(s)" in out
    assert "errors        0" in out
    assert "warnings      0" in out


def test_analyze_reports_errors_with_exit_1(tmp_path, capsys):
    path = tmp_path / "dl.script"
    path.write_text(ORDER_DEADLOCK)
    assert main(["analyze", str(path)]) == 1
    out = capsys.readouterr().out
    assert "SCR005" in out
    assert "guaranteed rendezvous deadlock" in out


def test_analyze_strict_fails_on_warnings(tmp_path, capsys):
    path = tmp_path / "warn.script"
    path.write_text(WARNING_ONLY)
    assert main(["analyze", str(path)]) == 0       # warnings only
    capsys.readouterr()
    assert main(["analyze", "--strict", str(path)]) == 1
    assert "SCR008" in capsys.readouterr().out


def test_analyze_json_is_deterministic(tmp_path, capsys):
    path = tmp_path / "dl.script"
    path.write_text(ORDER_DEADLOCK)
    assert main(["analyze", "--json", str(path)]) == 1
    first = capsys.readouterr().out
    assert main(["analyze", "--json", str(path)]) == 1
    second = capsys.readouterr().out
    assert first == second

    import json
    document = json.loads(first)
    assert document["version"] == 1
    assert document["summary"]["errors"] == 1
    codes = [finding["code"]
             for finding in document["reports"][0]["findings"]]
    assert "SCR005" in codes


def test_analyze_without_inputs_is_usage_error(capsys):
    assert main(["analyze"]) == 2
    assert "no inputs" in capsys.readouterr().err


def test_analyze_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.script"
    path.write_text("SCRIPT ; nonsense")
    assert main(["analyze", str(path)]) == 2
    assert "expected" in capsys.readouterr().err


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.script")]) == 2
    assert "nope.script" in capsys.readouterr().err


def test_lint_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.script"
    path.write_text("SCRIPT ; nonsense")
    assert main(["lint", str(path)]) == 2
    assert "expected" in capsys.readouterr().err


def test_lint_strict_catches_analyzer_findings(tmp_path, capsys):
    # The order deadlock has no name-level lint warnings, so plain lint
    # passes; --strict surfaces the analyzer's verdict.
    path = tmp_path / "dl.script"
    path.write_text(ORDER_DEADLOCK)
    assert main(["lint", str(path)]) == 0
    capsys.readouterr()
    assert main(["lint", "--strict", str(path)]) == 1


def test_lint_json_emits_full_report(tmp_path, capsys):
    import json

    path = tmp_path / "dl.script"
    path.write_text(ORDER_DEADLOCK)
    assert main(["lint", "--json", str(path)]) == 0
    document = json.loads(capsys.readouterr().out)
    codes = [finding["code"]
             for finding in document["reports"][0]["findings"]]
    assert "SCR005" in codes


def test_stats_analysis_summarizes_run(capsys):
    assert main(["stats", "analysis"]) == 0
    out = capsys.readouterr().out
    assert "analysis_files_total" in out
    assert "analysis_files_clean" in out


def test_stats_analysis_json(capsys):
    import json

    assert main(["stats", "analysis", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["analysis_files_total"]["value"] == 3
    assert document["analysis_errors_total"]["value"] == 0


def test_module_entry_point_via_subprocess():
    import subprocess
    import sys

    completed = subprocess.run(
        [sys.executable, "-m", "repro", "figures"],
        capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0
    assert "fig3" in completed.stdout


def test_chaos_recover_soak_with_trace_artifact(tmp_path, capsys):
    trace = tmp_path / "recover.trace"
    assert main(["chaos", "recover", "--runs", "2", "--verify",
                 "--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "recovery soak" in out
    assert "restarts" in out
    assert "replayed identically" in out
    content = trace.read_text()
    assert "recovery" in content       # RECOVERY events land in the artifact
    assert "restart" in content


def test_chaos_recover_quarantine_exits_nonzero(capsys):
    # A restart cap below the crash plan's coverage deterministically
    # quarantines a name; the soak must not exit clean over a process
    # that never came back.
    assert main(["chaos", "recover", "--runs", "2",
                 "--max-restarts", "1"]) == 1
    captured = capsys.readouterr()
    assert "quarantined" in captured.out
    assert "never recovered" in captured.err


def test_replay_verb_validates_and_summarizes(tmp_path, capsys):
    from repro.persist import record_run

    journal = tmp_path / "run.jrnl"
    record_run("broadcast", 0, journal)
    assert main(["replay", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "replayed identically" in out
    assert "0 fresh frame(s)" in out


def test_replay_verb_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "nope.jrnl")]) == 2
    assert "nope.jrnl" in capsys.readouterr().err


def test_replay_verb_rejects_non_journal(tmp_path, capsys):
    path = tmp_path / "junk.jrnl"
    path.write_bytes(b"this is not a journal at all")
    assert main(["replay", str(path)]) == 1
    assert "magic" in capsys.readouterr().err


def test_chaos_kill9_requires_resume(capsys):
    assert main(["chaos", "broadcast", "--kill9"]) == 2
    assert "--resume" in capsys.readouterr().err


def test_chaos_kill9_resume_roundtrip(tmp_path, capsys):
    # Full harness through the CLI: oracle run, SIGKILLed child
    # subprocess, torn tail, resume, committed-sequence comparison.
    assert main(["chaos", "broadcast", "--kill9", "--resume", "--torn",
                 "--seed", "0", "--journal", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "SIGKILL" in out
    assert "identical to oracle" in out
    # --journal keeps the artifacts for inspection.
    assert (tmp_path / "oracle-broadcast-0.jrnl").exists()
    assert (tmp_path / "crash-broadcast-0.jrnl").exists()


def test_chaos_chatroom_soak(capsys):
    assert main(["chaos", "chatroom", "--runs", "5", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "chatroom" in out
    assert "replayed identically" in out


def test_chaos_plain_soak_trace_artifact(tmp_path, capsys):
    trace = tmp_path / "soak.trace"
    assert main(["chaos", "broadcast", "--runs", "2",
                 "--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    assert f"wrote base seed 0 to {trace}" in out
    assert "comm" in trace.read_text()


def test_chaos_describe_plan(capsys):
    assert main(["chaos", "chatroom", "--describe-plan",
                 "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "fault plan: chatroom, seed 7" in out
    assert "journal" in out                       # corruption recipe too
    # The printed plan is exactly what a plan-less run installs.
    from repro.faults import plan_for_seed
    for line in plan_for_seed("chatroom", 7).describe():
        assert line in out


def test_chaos_describe_plan_recover(capsys):
    assert main(["chaos", "recover", "--describe-plan",
                 "--seed", "3"]) == 0
    assert "recover" in capsys.readouterr().out


def test_chaos_explore_green_run(tmp_path, capsys):
    trace = tmp_path / "explore.trace"
    assert main(["chaos", "lock", "--explore", "--budget", "6",
                 "--oracle", "residue", "--oracle", "abort",
                 "--trace-out", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "fault exploration: lock, budget 6" in out
    assert "every schedule passed every oracle" in out
    assert trace.exists()


def test_chaos_explore_finds_and_replays_planted_regression(
        monkeypatch, tmp_path, capsys):
    from repro.core.supervision import Supervisor
    end_aborted = Supervisor._end_aborted
    monkeypatch.setattr(Supervisor, "_end_aborted",
                        lambda self, performance: None)
    plan = tmp_path / "ce.json"
    assert main(["chaos", "broadcast", "--explore", "--budget", "90",
                 "--plan-out", str(plan)]) == 1
    out = capsys.readouterr().out
    assert "failure" in out and "residue" in out
    assert "--replay-plan" in out                 # the repro command line
    assert plan.exists()
    # The saved counterexample reproduces through the CLI...
    assert main(["chaos", "broadcast", "--explore",
                 "--replay-plan", str(plan)]) == 1
    assert "residue" in capsys.readouterr().out
    # ...and stops reproducing once the regression is reverted.
    monkeypatch.setattr(Supervisor, "_end_aborted", end_aborted)
    assert main(["chaos", "broadcast", "--explore",
                 "--replay-plan", str(plan)]) == 0
    assert "passed every oracle" in capsys.readouterr().out


def test_chaos_replay_plan_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"scenario": "no-such"}')
    assert main(["chaos", "broadcast", "--explore",
                 "--replay-plan", str(path)]) == 2
    assert "unknown scenario" in capsys.readouterr().err
