"""Structured diagnostics: catalog, ordering, golden JSON, determinism."""

from pathlib import Path

import pytest

from repro.analysis import (CATALOG, Report, analyze_source,
                            counts_by_code, dump_report_json,
                            figure_corpus, report_document)

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


def corpus():
    """(label, source) for every figure and every broken fixture."""
    pairs = list(figure_corpus())
    for path in sorted(FIXTURES.glob("*.script")):
        pairs.append((path.stem, path.read_text()))
    return pairs


def test_catalog_is_contiguous_and_typed():
    assert sorted(CATALOG) == [f"SCR{n:03d}" for n in range(1, 13)]
    assert all(severity.value in ("error", "warning")
               for severity, _ in CATALOG.values())


def test_emit_rejects_unknown_codes():
    report = Report(label="x", script="x")
    with pytest.raises(KeyError):
        report.emit("SCR999", 1, "r", "nope")


def test_findings_sorted_by_line_then_code():
    report = Report(label="x", script="x")
    report.emit("SCR007", 9, "b", "later")
    report.emit("SCR001", 3, "a", "earlier")
    report.emit("SCR003", 3, "a", "same line, higher code")
    assert [(f.line, f.code) for f in report.findings] == [
        (3, "SCR001"), (3, "SCR003"), (9, "SCR007")]


@pytest.mark.parametrize("label,source", corpus())
def test_golden_diagnostics(label, source):
    report = analyze_source(source, label=label)
    expected = (GOLDEN / f"{label}.json").read_text()
    assert dump_report_json([report]) + "\n" == expected


def test_figures_analyze_clean():
    for label, source in figure_corpus():
        report = analyze_source(source, label=label)
        assert report.clean, f"{label}: {[f.render() for f in report.findings]}"


def test_json_byte_identical_across_runs():
    pairs = corpus()
    first = dump_report_json(
        analyze_source(src, label=label) for label, src in pairs)
    second = dump_report_json(
        analyze_source(src, label=label) for label, src in pairs)
    assert first == second


def test_report_document_summary():
    reports = [analyze_source(src, label=label) for label, src in corpus()]
    document = report_document(reports)
    assert document["version"] == 1
    summary = document["summary"]
    assert summary["files"] == len(reports)
    assert summary["errors"] == sum(r.error_count for r in reports)
    assert summary["warnings"] == sum(r.warning_count for r in reports)
    assert summary["findings_by_code"] == counts_by_code(reports)
    # The three fixtures among them exercise deadlock, block, and
    # out-of-bounds diagnostics.
    assert {"SCR002", "SCR003", "SCR005", "SCR006", "SCR007"} \
        <= set(summary["findings_by_code"])
