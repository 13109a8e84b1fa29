"""Trace capture for the runtime kernel.

Every observable action of the scheduler is recorded as a
:class:`TraceEvent`.  Traces are the raw material of the verification layer
(:mod:`repro.verification`): the paper's semantic guarantees (successive
activations, Figure 2's ``u=x and y=v``, broadcast delivery, lock safety)
are all checked as predicates over these event sequences.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, Iterable, Iterator

#: Longest rendering of a single ``details`` value before truncation.
VALUE_LIMIT = 60


def compact_role(role: Any) -> str:
    """Render a role id compactly: ``('recipient', 3)`` -> ``recipient[3]``."""
    if (isinstance(role, tuple) and len(role) == 2
            and isinstance(role[0], str)):
        return f"{role[0]}[{role[1]}]"
    return role if isinstance(role, str) else repr(role)


def compact_value(value: Any, limit: int = VALUE_LIMIT) -> str:
    """Render one ``details`` value for human-readable traces.

    Role addresses (duck-typed: anything with ``performance_id`` and
    ``role_id``, since the kernel cannot import the core layer) become
    ``perf:role``; everything else is ``repr``-ed and truncated to
    ``limit`` characters with an ellipsis.
    """
    performance = getattr(value, "performance_id", None)
    role = getattr(value, "role_id", None)
    if performance is not None and role is not None:
        text = f"{performance}:{compact_role(role)}"
    else:
        text = repr(value)
    if len(text) > limit:
        text = text[:limit - 3] + "..."
    return text


class EventKind(enum.Enum):
    """Kinds of events the scheduler and the script layer emit."""

    SPAWN = "spawn"
    PROC_DONE = "proc_done"
    PROC_FAIL = "proc_fail"
    COMM = "comm"                     # a rendezvous committed
    DELAY = "delay"
    TIMEOUT = "timeout"               # a Select timeout arm fired
    INTERRUPT = "interrupt"           # an exception was thrown into a process
    FAULT = "fault"                   # an injected fault event fired
    RECOVERY = "recovery"             # a recovery action (restart/retry/...)
    # Script-layer events (emitted by repro.core):
    INSTANCE_CREATED = "instance_created"
    ENROLL_REQUEST = "enroll_request"
    ENROLL_ACCEPT = "enroll_accept"
    PERFORMANCE_START = "performance_start"
    ROLE_START = "role_start"
    ROLE_END = "role_end"
    ROLE_CRASH = "role_crash"         # a filled role's process crashed
    PERFORMANCE_END = "performance_end"
    PERFORMANCE_ABORT = "performance_abort"
    # User-defined events (via the Trace effect):
    USER = "user"


@dataclasses.dataclass(slots=True, eq=False)
class TraceEvent:
    """One observable action.  Treat as immutable once emitted.

    ``seq`` is a global monotonically increasing sequence number (the total
    order in which the single-threaded scheduler performed actions); ``time``
    is the virtual clock at the moment of the action.

    Not a frozen dataclass: events are allocated on the scheduler hot path
    (one per commit) and ``frozen=True`` triples construction cost by
    routing every field through ``object.__setattr__``.  ``eq=False``
    keeps identity comparison/hashing, as frozen-by-convention data wants.
    """

    seq: int
    time: float
    kind: EventKind
    process: Any
    details: dict[str, Any]

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor into ``details``."""
        return self.details.get(key, default)

    def __str__(self) -> str:
        details = ", ".join(f"{k}={compact_value(v)}"
                            for k, v in self.details.items())
        return f"[{self.seq:>5} t={self.time:g}] {self.kind.value} {self.process!r} {details}"


class Tracer:
    """Accumulates :class:`TraceEvent` objects in order.

    A tracer may be shared between several scheduler runs; sequence numbers
    keep increasing, so concatenated traces remain totally ordered.
    """

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._seq = 0
        self._listeners: list[Callable[[TraceEvent], None]] = []

    def emit(self, time: float, kind: EventKind, process: Any,
             **details: Any) -> TraceEvent:
        """Record and return a new event."""
        event = TraceEvent(self._seq, time, kind, process, details)
        self._seq += 1
        self._events.append(event)
        if self._listeners:
            for listener in self._listeners:
                listener(event)
        return event

    def add_listener(self, listener: Callable[[TraceEvent], None]) -> None:
        """Call ``listener`` with every subsequently emitted event."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[TraceEvent], None]) -> None:
        """Detach a listener previously added (idempotent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    @property
    def events(self) -> list[TraceEvent]:
        """All events recorded so far, in order (the live, mutable list)."""
        return self._events

    def snapshot(self) -> tuple[TraceEvent, ...]:
        """An immutable copy of the events recorded so far.

        Analysis should prefer this over :attr:`events`: a snapshot can
        never race a later :meth:`clear` or the emissions of a shared
        tracer's next run.  All :mod:`repro.verification` helpers accept
        either a tracer or a plain event sequence such as this.
        """
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def of_kind(self, *kinds: EventKind) -> list[TraceEvent]:
        """Events whose kind is one of ``kinds``, in order."""
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    def for_process(self, process: Any) -> list[TraceEvent]:
        """Events attributed to ``process``, in order."""
        return [e for e in self._events if e.process == process]

    def user_events(self, kind: str | None = None) -> list[TraceEvent]:
        """User events (``Trace`` effect), optionally filtered by subkind."""
        events = self.of_kind(EventKind.USER)
        if kind is None:
            return events
        return [e for e in events if e.get("user_kind") == kind]

    def clear(self) -> None:
        """Drop all recorded events (sequence numbering continues)."""
        self._events.clear()


def format_trace(events: Iterable[TraceEvent]) -> str:
    """Render a trace as a human-readable multi-line string."""
    return "\n".join(str(e) for e in events)
