"""Verification layer: trace invariants and finite-trace LTL."""

from .ltl import (Always, And, Atom, Eventually, Formula, Implies, Next, Not,
                  Or, Until, WeakNext, evaluate)
from .metrics import (comm_counts_by_performance, performance_spans,
                      role_durations, time_in_script)
from .timeline import render_timeline
from .properties import (check_all, check_broadcast_delivery,
                         check_critical_sets,
                         check_no_cross_performance_comm,
                         check_performances_well_formed,
                         check_successive_activations,
                         comm_events_of_performance, performances_in)

__all__ = [
    "Always",
    "And",
    "Atom",
    "Eventually",
    "Formula",
    "Implies",
    "Next",
    "Not",
    "Or",
    "Until",
    "WeakNext",
    "check_all",
    "check_broadcast_delivery",
    "check_critical_sets",
    "check_no_cross_performance_comm",
    "check_performances_well_formed",
    "check_successive_activations",
    "comm_counts_by_performance",
    "comm_events_of_performance",
    "evaluate",
    "performance_spans",
    "performances_in",
    "render_timeline",
    "role_durations",
    "time_in_script",
]
