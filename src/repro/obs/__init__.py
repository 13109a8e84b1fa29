"""Observability layer: span trees, metrics, and exportable profiles.

Built entirely on the deterministic trace pipeline, this package makes the
paper's claims *inspectable*: where performances stall (span trees over
initiation/termination policies), how faults propagate (crash causes and
abort spans), and which kernel paths are hot (virtual-time histograms fed
by scheduler/board/transport hooks).  Nothing here reads a wall clock —
identical seeds produce byte-identical exports.

Three parts:

* :mod:`~repro.obs.spans` / :mod:`~repro.obs.export` — hierarchical spans
  derived from :class:`~repro.runtime.tracing.TraceEvent` streams, exported
  to Chrome trace-event JSON (Perfetto-loadable) and JSONL;
* :mod:`~repro.obs.metrics` — a counter/gauge/histogram registry plus
  :class:`RuntimeMetrics`, the standard scheduler/transport observer;
* :mod:`~repro.obs.scenarios` — instrumented runs of any catalogue
  scenario behind the ``python -m repro trace``, ``stats`` and
  ``profile`` commands.
"""

from .export import (dump_chrome_trace, dump_spans_jsonl, jsonable,
                     load_spans_jsonl, merge_chrome_events, span_to_dict,
                     to_chrome_trace)
from .metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, RuntimeMetrics)
from .profile import (PHASES, ProfileReport, Profiler, diff_attributions,
                      profile_scenario, tick_clock)
from .scenarios import ScenarioRun, run_scenario
from .spans import Span, build_spans, span_tree_lines

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PHASES",
    "ProfileReport",
    "Profiler",
    "RuntimeMetrics",
    "ScenarioRun",
    "Span",
    "build_spans",
    "diff_attributions",
    "dump_chrome_trace",
    "dump_spans_jsonl",
    "jsonable",
    "load_spans_jsonl",
    "merge_chrome_events",
    "profile_scenario",
    "run_scenario",
    "span_to_dict",
    "span_tree_lines",
    "tick_clock",
]
