"""Structured diagnostics: stable codes, severities, deterministic JSON.

Every analyzer check reports through this layer so that output is uniform
and machine-readable: each :class:`Finding` carries a stable ``SCRnnn``
code (the catalog below), a severity, the source line, the role *instance*
it concerns, and the partner role when there is one.  Findings sort by
(line, code, role, partner, message), so a report — and its JSON rendering
— is a pure function of the analyzed program: repeated runs are
byte-identical, which the golden tests pin.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Iterable


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are statically *guaranteed* misbehaviors (the
    communication can never commit, the performance must block);
    ``WARNING`` findings are conservative possibilities the analyzer
    cannot rule out.
    """

    ERROR = "error"
    WARNING = "warning"


#: The diagnostic catalog: code -> (severity, short title).  Codes are
#: append-only and never renumbered; tools may rely on them.
CATALOG: dict[str, tuple[Severity, str]] = {
    "SCR001": (Severity.WARNING, "send can never rendezvous"),
    "SCR002": (Severity.WARNING, "receive can never rendezvous"),
    "SCR003": (Severity.ERROR, "family index out of bounds"),
    "SCR004": (Severity.ERROR, "role instance communicates with itself"),
    "SCR005": (Severity.ERROR, "guaranteed rendezvous deadlock"),
    "SCR006": (Severity.ERROR, "guaranteed block"),
    "SCR007": (Severity.WARNING, "unreachable after guaranteed block"),
    "SCR008": (Severity.WARNING,
               "possibly-unfilled partner not handled"),
    "SCR009": (Severity.WARNING, "critical set can never initiate"),
    "SCR010": (Severity.ERROR, "guaranteed family deadlock"),
    "SCR011": (Severity.ERROR, "critical-set liveness violation"),
    "SCR012": (Severity.WARNING, "parameterized abstraction inconclusive"),
}


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One diagnostic: a coded, located statement about the program."""

    code: str
    severity: str          # Severity.value, kept flat for JSON
    line: int
    role: str              # role-instance label ("sender", "worker[2]"),
                           # or "" for script-level findings
    partner: str | None
    message: str

    @property
    def sort_key(self) -> tuple:
        return (self.line, self.code, self.role, self.partner or "",
                self.message)

    def to_dict(self) -> dict:
        """JSON-able snapshot (all fields, fixed key set)."""
        return {"code": self.code, "severity": self.severity,
                "line": self.line, "role": self.role,
                "partner": self.partner, "message": self.message}

    def render(self) -> str:
        """One line of human-readable text."""
        return (f"line {self.line}: {self.severity} {self.code} "
                f"[{self.role}] {self.message}")


class Report:
    """All findings for one analyzed program."""

    def __init__(self, label: str, script: str):
        self.label = label
        self.script = script
        self._findings: list[Finding] = []
        self._sorted = True
        #: Optional parameterized-verification summary (a JSON-able dict
        #: set by :mod:`repro.analysis.param` when ``--parameterized`` ran).
        self.parameterized: dict | None = None

    def emit(self, code: str, line: int, role: str, message: str,
             partner: str | None = None) -> None:
        """Record one finding; severity comes from the catalog."""
        severity, _title = CATALOG[code]
        self._findings.append(Finding(
            code=code, severity=severity.value, line=line, role=role,
            partner=partner, message=message))
        self._sorted = False

    @property
    def findings(self) -> list[Finding]:
        """Findings in canonical (line, code, role, partner) order."""
        if not self._sorted:
            self._findings.sort(key=lambda f: f.sort_key)
            self._sorted = True
        return self._findings

    def by_code(self, *codes: str) -> list[Finding]:
        """The findings whose code is in ``codes``, canonical order."""
        wanted = set(codes)
        return [f for f in self.findings if f.code in wanted]

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings
                   if f.severity == Severity.ERROR.value)

    @property
    def warning_count(self) -> int:
        return sum(1 for f in self.findings
                   if f.severity == Severity.WARNING.value)

    @property
    def clean(self) -> bool:
        """True when there are no findings at all."""
        return not self._findings

    def to_dict(self) -> dict:
        """JSON-able snapshot with deterministic ordering."""
        document = {"label": self.label, "script": self.script,
                    "errors": self.error_count,
                    "warnings": self.warning_count,
                    "findings": [f.to_dict() for f in self.findings]}
        if self.parameterized is not None:
            document["parameterized"] = self.parameterized
        return document

    def lines(self) -> list[str]:
        """Human-readable rendering, one line per finding."""
        return [f"{self.label}: {finding.render()}"
                for finding in self.findings]


def counts_by_code(reports: Iterable[Report]) -> dict[str, int]:
    """Total findings per code across ``reports`` (only nonzero codes)."""
    counts: dict[str, int] = {}
    for report in reports:
        for finding in report.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
    return dict(sorted(counts.items()))


def report_document(reports: Iterable[Report]) -> dict:
    """The multi-file report document emitted by ``repro analyze --json``.

    Reports are ordered by label (stable for equal labels), and each
    report's findings are already in canonical (line, code, role, partner)
    order, so the document is a pure function of the analyzed inputs —
    parameterized and fixed-N runs diff cleanly regardless of the order
    the files were named on the command line.
    """
    reports = sorted(reports, key=lambda r: r.label)
    return {
        "version": 1,
        "reports": [report.to_dict() for report in reports],
        "summary": {
            "files": len(reports),
            "errors": sum(r.error_count for r in reports),
            "warnings": sum(r.warning_count for r in reports),
            "findings_by_code": counts_by_code(reports),
        },
    }


def dump_report_json(reports: Iterable[Report]) -> str:
    """Deterministic JSON: sorted keys, fixed indentation, sorted findings."""
    return json.dumps(report_document(reports), sort_keys=True, indent=2)


def summary_lines(reports: Iterable[Report]) -> list[str]:
    """The ``analyze`` summary in the shared report layout.

    Rendered with :func:`repro.reporting.kv_lines` so every CLI report
    (soak, explore, replay, analyze) shares one look.  When any
    report carries a parameterized section, its aggregate counters are
    appended as extra rows.
    """
    from ..reporting import kv_lines  # package-top shared formatter

    reports = sorted(reports, key=lambda r: r.label)
    rows: list[tuple[str, object]] = [
        ("errors", sum(r.error_count for r in reports)),
        ("warnings", sum(r.warning_count for r in reports)),
    ]
    by_code = counts_by_code(reports)
    if by_code:
        rows.append(("findings", " ".join(
            f"{code}={count}" for code, count in by_code.items())))
    parameterized = [r.parameterized for r in reports
                     if r.parameterized is not None]
    if parameterized:
        rows.append(("proved", sum(
            1 for p in parameterized if p["verdict"] == "safe")))
        rows.append(("states", sum(p["states"] for p in parameterized)))
        rows.append(("frontier", max(
            p["frontier_peak"] for p in parameterized)))
        rows.append(("witnesses", sum(
            p["witnesses_replayed"] for p in parameterized)))
    return kv_lines(f"analysis: {len(reports)} file(s)", rows)
