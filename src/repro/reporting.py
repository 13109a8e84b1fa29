"""Shared CLI report formatting: one layout for every repro report.

Every report-style CLI command renders as a one-line header followed by
aligned ``label  value`` rows: the chaos soak, exploration and
``--replay-plan`` reports, and the ``repro analyze`` summary.
"""

from __future__ import annotations

from typing import Any, Iterable

#: Width the row labels are padded to; chosen so the historical reports'
#: output is byte-identical ("  outcomes      ..." etc.).
LABEL_WIDTH = 12


def kv_lines(header: str,
             rows: Iterable[tuple[str, Any]]) -> list[str]:
    """Render ``header`` plus one aligned detail line per ``(label, value)``."""
    lines = [header]
    for label, value in rows:
        lines.append(f"  {label:<{LABEL_WIDTH}}  {value}")
    return lines
