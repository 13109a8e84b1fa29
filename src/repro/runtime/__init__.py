"""Deterministic cooperative concurrency kernel.

This package is the substrate every other layer builds on: processes are
generator functions yielding effect objects; a seeded scheduler with a
virtual clock interprets the effects.  See :mod:`repro.runtime.effects` for
the effect vocabulary and :mod:`repro.runtime.scheduler` for the execution
model.
"""

from .board import Commit, RendezvousBoard
from .board_index import IndexedBoard
from .board_oracle import OracleBoard
from .effects import (ELSE_BRANCH, TIMED_OUT, TIMED_OUT_BRANCH, AddAlias,
                      Choice, Delay, DropAlias, Effect, GetName, GetTime,
                      Latch, QueryProcesses, Receive, ReceivedMessage,
                      Select, SelectResult, Send, Spawn, Trace, WaitUntil)
from .instrument import Sink
from .process import Process, ProcessState
from .scheduler import MatchFilter, RunResult, Scheduler, run_processes
from .tracing import EventKind, TraceEvent, Tracer, format_trace

__all__ = [
    "AddAlias",
    "Choice",
    "Commit",
    "Delay",
    "DropAlias",
    "ELSE_BRANCH",
    "MatchFilter",
    "Sink",
    "TIMED_OUT",
    "TIMED_OUT_BRANCH",
    "Effect",
    "EventKind",
    "GetName",
    "GetTime",
    "IndexedBoard",
    "Latch",
    "OracleBoard",
    "Process",
    "ProcessState",
    "QueryProcesses",
    "Receive",
    "ReceivedMessage",
    "RendezvousBoard",
    "RunResult",
    "Scheduler",
    "Select",
    "SelectResult",
    "Send",
    "Spawn",
    "Trace",
    "TraceEvent",
    "Tracer",
    "WaitUntil",
    "format_trace",
    "run_processes",
]
