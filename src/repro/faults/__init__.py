"""Deterministic fault injection, chaos soaking, and fault-space search.

:mod:`repro.faults.plan` defines :class:`FaultPlan` — a seed-reproducible
schedule of process crashes, link partitions/heals, latency spikes and
message drops, installed onto a scheduler as plain timers.
:mod:`repro.faults.soak` runs the broadcast, lock-manager and chatroom
scripts for many performances under such plans and asserts that every run
finishes residue-free (empty board, no waiters, no timers, no aliases);
the scenario catalogue (:mod:`repro.scenarios`) names them for every tool.
:mod:`repro.faults.explore` explores the fault space *systematically*: it
enumerates injection points from a fault-free run's instrumentation
stream, generates schedules anchored at them under a budget, judges each
run with a pluggable oracle set, and delta-debugs any failure down to a
minimal, replayable counterexample.
"""

from .explore import (DEFAULT_ORACLES, Counterexample, ExploreReport,
                      FaultSchedule, InjectionPoint, InjectionProbe,
                      check_saved_schedule, explore, record_exploration)
from .plan import (BITFLIP, CORRUPTION_MODES, CRASH, DROP, GARBAGE, HEAL,
                   KINDS, PARTITION, SLOW, TRUNCATE, FaultEvent, FaultPlan,
                   JournalCorruptionPlan)
from .reporting import kv_lines
from .soak import (ChaosRun, SoakReport, broadcast_plan, chatroom_plan,
                   check_residue, lock_plan, make_chatroom,
                   make_chaos_broadcast, plan_for_seed, run_chaos_broadcast,
                   run_chaos_chatroom, run_chaos_lock, soak,
                   verify_determinism)

__all__ = [
    "BITFLIP",
    "CORRUPTION_MODES",
    "CRASH",
    "ChaosRun",
    "Counterexample",
    "DEFAULT_ORACLES",
    "DROP",
    "ExploreReport",
    "FaultEvent",
    "FaultPlan",
    "FaultSchedule",
    "GARBAGE",
    "HEAL",
    "InjectionPoint",
    "InjectionProbe",
    "JournalCorruptionPlan",
    "KINDS",
    "PARTITION",
    "SLOW",
    "TRUNCATE",
    "SoakReport",
    "broadcast_plan",
    "chatroom_plan",
    "check_residue",
    "check_saved_schedule",
    "explore",
    "kv_lines",
    "lock_plan",
    "make_chaos_broadcast",
    "make_chatroom",
    "plan_for_seed",
    "record_exploration",
    "run_chaos_broadcast",
    "run_chaos_chatroom",
    "run_chaos_lock",
    "soak",
    "verify_determinism",
]
