"""End-to-end tests for ``analyze --parameterized``."""

from pathlib import Path

from repro.analysis import analyze_source, dump_report_json
from repro.analysis.abstraction import build_concrete_system
from repro.analysis.param import explore_system
from repro.lang.parser import parse_script

HERE = Path(__file__).parent
EXAMPLES = HERE.parent.parent / "examples" / "scripts"

FAMILY_GAP = (HERE / "fixtures" / "family_gap.script").read_text()

LIVELOCK = """
SCRIPT chatter;
  INITIATION: IMMEDIATE;
  TERMINATION: IMMEDIATE;

  ROLE talker (word : item);
  BEGIN
    DO
      true; SEND word TO listener ->
        SKIP
    OD
  END talker;

  ROLE listener (VAR word : item);
  BEGIN
    DO
      true; RECEIVE word FROM talker ->
        SKIP
    OD
  END listener;
END chatter;
"""


def verify(source, label="x", **kwargs):
    return analyze_source(source, label=label, parameterized=True, **kwargs)


# -- the examples corpus is proved safe -------------------------------------


def test_examples_proved_safe_for_all_sizes():
    expected = {
        "token_ring": ("cutoff", "all n >= 2"),
        "barrier": ("abstract", "all n >= 2"),
        "request_reply": ("fixed", "declared sizes"),
    }
    for stem, (strategy, covers) in expected.items():
        source = (EXAMPLES / f"{stem}.script").read_text()
        report = verify(source, label=stem)
        stats = report.parameterized
        assert report.clean, (stem, [f.render() for f in report.findings])
        assert stats["verdict"] == "safe", stem
        assert stats["strategy"] == strategy, stem
        assert stats["covers"] == covers, stem
        assert stats["states"] > 0


# -- the planted family bug -------------------------------------------------


def test_fixed_n_analysis_misses_the_family_gap():
    report = analyze_source(FAMILY_GAP, label="family_gap")
    assert report.clean


def test_parameterized_analysis_finds_the_family_gap():
    report = verify(FAMILY_GAP, label="family_gap")
    stats = report.parameterized
    assert stats["verdict"] == "unsafe"
    findings = report.by_code("SCR010")
    assert len(findings) == 1
    # The witness is minimal (n = 3) and was confirmed by engine replay.
    assert "n = 3" in findings[0].message
    assert "concrete replay" in findings[0].message
    assert stats["witnesses_replayed"] >= 1


def test_family_gap_witness_agrees_with_concrete_exploration():
    program = parse_script(FAMILY_GAP)
    clean = explore_system(build_concrete_system(program, {"n": 2}))
    broken = explore_system(build_concrete_system(program, {"n": 3}))
    assert not clean.deadlocks and clean.terminal_count == 1
    assert broken.deadlocks and broken.terminal_count == 0


# -- liveness ---------------------------------------------------------------


def test_endless_chatter_is_a_liveness_violation():
    report = verify(LIVELOCK, label="chatter")
    stats = report.parameterized
    assert stats["verdict"] == "unsafe"
    findings = report.by_code("SCR011")
    assert len(findings) == 1
    assert "no terminal configuration" in findings[0].message


# -- degradation ------------------------------------------------------------


def test_state_cap_degrades_to_inconclusive():
    source = (EXAMPLES / "barrier.script").read_text()
    report = verify(source, label="barrier", max_states=2)
    stats = report.parameterized
    assert stats["verdict"] == "inconclusive"
    assert report.by_code("SCR012")
    assert not report.by_code("SCR010", "SCR011")


def test_out_of_fragment_scripts_degrade_to_inconclusive():
    # fig5's replicated DO over the manager family is not a counted
    # foreach, so the parameterized checker must refuse honestly.
    from repro.lang import figures
    report = verify(figures.FIGURE5_DATABASE, label="fig5")
    stats = report.parameterized
    assert stats["verdict"] == "inconclusive"
    assert report.by_code("SCR012")


# -- determinism ------------------------------------------------------------


def test_parameterized_json_is_byte_identical_across_runs():
    sources = [(stem, (EXAMPLES / f"{stem}.script").read_text())
               for stem in ("barrier", "request_reply", "token_ring")]
    sources.append(("family_gap", FAMILY_GAP))
    first = dump_report_json(
        verify(src, label=label) for label, src in sources)
    second = dump_report_json(
        verify(src, label=label) for label, src in sources)
    assert first == second
    assert '"parameterized"' in first


def test_exploration_is_deterministic():
    program = parse_script(FAMILY_GAP)
    runs = [explore_system(build_concrete_system(program, {"n": 3}))
            for _ in range(2)]
    assert runs[0].states == runs[1].states
    assert [runs[0].blocked(c) for c in runs[0].deadlocks] == \
        [runs[1].blocked(c) for c in runs[1].deadlocks]


# -- CLI exit codes ---------------------------------------------------------


def test_verify_cli_exit_codes(tmp_path, capsys):
    from repro.__main__ import main

    assert main(["analyze", "--parameterized",
                 str(EXAMPLES / "barrier.script")]) == 0
    out = capsys.readouterr().out
    assert "proved safe: all n >= 2" in out

    # The paper figures verify without errors: fig5's family loop is out
    # of the checker's fragment, an inconclusive warning.
    assert main(["analyze", "--parameterized", "--figures"]) == 0
    out = capsys.readouterr().out
    assert "analysis: 3 file(s)" in out and "SCR012=1" in out

    gap = tmp_path / "family_gap.script"
    gap.write_text(FAMILY_GAP)
    assert main(["analyze", str(gap)]) == 0          # fixed-N: clean
    capsys.readouterr()
    assert main(["analyze", "--parameterized", str(gap)]) == 1  # the bug
    assert "SCR010" in capsys.readouterr().out

    assert main(["analyze", "--parameterized",
                 str(tmp_path / "missing.script")]) == 2
