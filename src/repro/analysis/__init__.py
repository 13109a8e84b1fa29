"""Static analysis for script programs (paper Section V).

"We believe scripts will simplify the specification of communication
subsystems and make the verification of such systems more practical" —
this package is that verification story: an index-aware communication
graph over unrolled role families, per-instance guaranteed communication
prefixes, a synchronous wait-for analysis that detects *guaranteed*
rendezvous deadlocks, critical-set feasibility checks, and a
structured-diagnostics layer with stable ``SCRnnn`` codes and
deterministic JSON output.

Typical use::

    from repro.analysis import analyze_source

    report = analyze_source(source, label="myscript")
    for line in report.lines():
        print(line)

The analyzer is validated *differentially* against the deterministic
engine: every guaranteed-deadlock finding on the test fixtures is asserted
to actually block under :mod:`repro.runtime`, and every shipped figure
must analyze error-free (see ``tests/analysis/test_differential.py`` and
DESIGN.md §11).
"""

from .analyzer import analyze_program, analyze_source, figure_corpus
from .deadlock import (Prefix, PrefixOp, analyze_deadlocks, collect_prefixes,
                       guaranteed_prefix)
from .diagnostics import (CATALOG, Finding, Report, Severity,
                          counts_by_code, dump_report_json,
                          report_document, summary_lines)
from .graph import (CommSite, Instance, collect_sites, instance_label,
                    role_instances, static_eval, terminated_partners)

__all__ = [
    "CATALOG",
    "CommSite",
    "Finding",
    "Instance",
    "Prefix",
    "PrefixOp",
    "Report",
    "Severity",
    "analyze_deadlocks",
    "analyze_program",
    "analyze_source",
    "collect_prefixes",
    "collect_sites",
    "counts_by_code",
    "dump_report_json",
    "figure_corpus",
    "guaranteed_prefix",
    "instance_label",
    "report_document",
    "role_instances",
    "static_eval",
    "summary_lines",
    "terminated_partners",
]
