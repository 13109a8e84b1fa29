"""Tests for the ``trace``, ``stats`` and ``profile`` CLI commands."""

import json
import pathlib

from repro.__main__ import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_trace_writes_chrome_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "demo-broadcast", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "demo-broadcast" in stdout
    assert "Perfetto" in stdout
    document = json.loads(out.read_text())
    assert document["traceEvents"]
    assert any(e["ph"] == "X" for e in document["traceEvents"])


def test_trace_jsonl_and_tree(tmp_path, capsys):
    out = tmp_path / "trace.json"
    jsonl = tmp_path / "spans.jsonl"
    assert main(["trace", "demo-lock", "--out", str(out),
                 "--jsonl", str(jsonl), "--tree"]) == 0
    stdout = capsys.readouterr().out
    assert "- run [" in stdout  # the tree was printed
    lines = [json.loads(line) for line in
             jsonl.read_text().splitlines() if line]
    assert lines[0]["kind"] == "run"
    assert any(record["kind"] == "performance" for record in lines)


def test_trace_is_deterministic_across_invocations(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["trace", "demo-election", "--seed", "2", "--out",
                 str(a)]) == 0
    assert main(["trace", "demo-election", "--seed", "2", "--out",
                 str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stats_prints_metrics_summary(capsys):
    assert main(["stats", "demo-lock"]) == 0
    out = capsys.readouterr().out
    assert "rendezvous_match_latency" in out
    assert "per-performance durations:" in out
    assert "demo_lock/p1" in out


def test_stats_json(capsys):
    assert main(["stats", "demo-broadcast", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["metrics"]["comms_total"]["value"] > 0
    assert data["performances"]


def test_stats_json_matches_golden_file(capsys):
    """The metrics JSON is a stable public artifact; a reshape is a
    breaking change and must be deliberate (regenerate with
    ``python -m repro stats demo-broadcast --json``)."""
    assert main(["stats", "demo-broadcast", "--json"]) == 0
    out = capsys.readouterr().out
    golden = (GOLDEN / "stats_demo_broadcast.json").read_text()
    assert out == golden


def test_unknown_scenario_is_rejected(capsys):
    import pytest

    with pytest.raises(SystemExit):
        main(["trace", "nope"])


def test_profile_prints_attribution_summary(capsys):
    assert main(["profile", "demo-broadcast"]) == 0
    out = capsys.readouterr().out
    assert "phase attribution" in out
    assert "dispatch" in out and "match" in out
    assert "counters (per commit):" in out
    assert "matcher: pairs max" in out


def test_profile_writes_all_three_exports(tmp_path, capsys):
    report = tmp_path / "p.json"
    flame = tmp_path / "p.flame"
    chrome = tmp_path / "p.trace.json"
    assert main(["profile", "demo-lock", "--deterministic",
                 "--json", str(report), "--flame", str(flame),
                 "--chrome", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "speedscope" in out and "Perfetto" in out
    data = json.loads(report.read_text())
    assert data["profile_version"] == 1
    assert data["wall"]["clock"] == "deterministic-ticks"
    for line in flame.read_text().splitlines():
        stack, _, weight = line.rpartition(" ")
        assert stack and weight.isdigit()
    merged = json.loads(chrome.read_text())
    assert any(e.get("cat") == "profile" for e in merged["traceEvents"])


def test_profile_deterministic_json_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["profile", "demo-election", "--seed", "2",
                     "--deterministic", "--json", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_profile_diff_explains_regression(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(
        {"scenario": "s", "per_commit": {"candidates_seen": 2.0},
         "wall": {"phases": {"match": {"ns": 10, "pct": 10.0}}}}))
    new.write_text(json.dumps(
        {"scenario": "s", "per_commit": {"candidates_seen": 40.0},
         "wall": {"phases": {"match": {"ns": 90, "pct": 60.0}}}}))
    assert main(["profile", "--diff", str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "'match' grew 10.0% -> 60.0%" in out


def test_profile_diff_compares_directories_of_runs(tmp_path, capsys):
    # Each side a directory of repeated runs: the medians are compared.
    for side, dispatch in (("old", (700, 640, 760)), ("new", (500, 440, 560))):
        (tmp_path / side).mkdir()
        for run, ms in enumerate(dispatch):
            (tmp_path / side / f"run{run}.json").write_text(json.dumps(
                {"scenario": "s", "per_commit": {},
                 "wall": {"phases": {"dispatch": {"ns": ms * 10**6,
                                                  "pct": 90.0}}}}))
    assert main(["profile", "--diff", str(tmp_path / "old"),
                 str(tmp_path / "new")]) == 0
    assert "s: phase 'dispatch' fell 700.0 ms -> 500.0 ms" in \
        capsys.readouterr().out


def test_profile_requires_scenario_or_diff(capsys):
    assert main(["profile"]) == 2
    assert "scenario is required" in capsys.readouterr().err
