"""Deterministic fault plans: seed-reproducible schedules of bad luck.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records, each
pinned to a *virtual* time.  Installing a plan on a scheduler arms one timer
per event; because the scheduler's clock is discrete and the plan is plain
data, the same seed and plan always produce bit-for-bit identical traces —
a chaos run that finds a bug *is* its own reproduction recipe.

Event kinds:

``CRASH``
    Kill a process (:meth:`Scheduler.kill`).  A crash aimed at a process
    that never spawned or already finished is recorded as not applied —
    plans may legitimately outlive their targets.
``PARTITION`` / ``HEAL``
    Cut or restore one topology link through the
    :class:`~repro.net.transport.NetworkTransport`.  Partitions act at
    matching time: a rendezvous across a cut link simply never commits
    until the link heals.
``SLOW`` / ``DROP``
    Set the transport's latency factor (congestion spike) or drop-retry
    count (lossy link forcing retransmissions).  Restore by scheduling a
    later ``SLOW`` with factor 1.0 / ``DROP`` with 0 retries.

Every applied event is emitted into the trace as
:data:`~repro.runtime.EventKind.FAULT`, so fault schedules are visible in
(and covered by) trace-equality determinism checks.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Hashable, Iterable, Iterator, TYPE_CHECKING

from ..errors import FaultPlanError
from ..runtime import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from ..net.transport import NetworkTransport
    from ..runtime.scheduler import Scheduler, TimerHandle
    from ..scenarios import FaultContract

# -- event kinds ----------------------------------------------------------

CRASH = "crash"
PARTITION = "partition"
HEAL = "heal"
SLOW = "slow"
DROP = "drop"

KINDS = (CRASH, PARTITION, HEAL, SLOW, DROP)

#: Kinds that act through the network transport.
_TRANSPORT_KINDS = frozenset({PARTITION, HEAL, SLOW, DROP})


def _target_to_jsonable(value: Any) -> Any:
    """Tuples survive a JSON round trip as lists; encode them recursively."""
    if isinstance(value, tuple):
        return [_target_to_jsonable(item) for item in value]
    return value


def _target_from_jsonable(value: Any) -> Any:
    """Invert :func:`_target_to_jsonable`: JSON lists become tuples again.

    Process names and topology nodes in this codebase are hashables built
    from tuples (``("R", 2)``, ``("leaf", 3)``), never lists, so the
    list→tuple restoration is unambiguous.
    """
    if isinstance(value, list):
        return tuple(_target_from_jsonable(item) for item in value)
    return value


@dataclasses.dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled misfortune.

    ``target`` is a process name for ``CRASH`` and an ``(a, b)`` node pair
    for ``PARTITION``/``HEAL``; ``value`` is the latency factor for
    ``SLOW`` and the retry count for ``DROP``.
    """

    time: float
    kind: str
    target: Any = None
    value: Any = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}; "
                                 f"choose from {KINDS}")
        if self.time < 0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.time}")
        if self.kind in (PARTITION, HEAL):
            # Fail at construction, not at fire time inside a timer
            # callback with an opaque unpack error.
            if (not isinstance(self.target, tuple)
                    or len(self.target) != 2):
                raise FaultPlanError(
                    f"{self.kind} target must be a 2-tuple of nodes, "
                    f"got {self.target!r}")

    def describe(self) -> str:
        """One-line human-readable rendering (CLI and traces)."""
        if self.kind == CRASH:
            return f"t={self.time:g} crash {self.target!r}"
        if self.kind in (PARTITION, HEAL):
            a, b = self.target
            return f"t={self.time:g} {self.kind} {a!r}--{b!r}"
        if self.kind == SLOW:
            return f"t={self.time:g} latency x{self.value:g}"
        return f"t={self.time:g} drop retries={self.value}"

    def to_jsonable(self) -> dict[str, Any]:
        """Plain-JSON encoding (tuple targets become nested lists)."""
        return {"time": self.time, "kind": self.kind,
                "target": _target_to_jsonable(self.target),
                "value": self.value}

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> "FaultEvent":
        """Rebuild an event from :meth:`to_jsonable` output (validating)."""
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault event must be a mapping, "
                                 f"got {data!r}")
        return cls(time=data.get("time", 0.0), kind=data.get("kind", ""),
                   target=_target_from_jsonable(data.get("target")),
                   value=data.get("value"))


class FaultPlan:
    """An ordered, deterministic schedule of fault events.

    Build one with the fluent methods (:meth:`crash`, :meth:`partition`,
    ...) or draw a seeded one from a contract with :func:`draw_plan`,
    then :meth:`install` it on a scheduler before (or during) a run.
    Events fire in ``(time, insertion)`` order, matching the scheduler's
    timer tie-break, so two installs of the same plan replay identically.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self.events: list[FaultEvent] = sorted(events, key=lambda e: e.time)

    # -- fluent builders ---------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultPlan":
        """Insert ``event`` keeping time order (stable for equal times)."""
        position = len(self.events)
        for index, existing in enumerate(self.events):
            if existing.time > event.time:
                position = index
                break
        self.events.insert(position, event)
        return self

    def crash(self, time: float, process: Hashable) -> "FaultPlan":
        """Kill ``process`` at virtual ``time``."""
        return self.add(FaultEvent(time, CRASH, target=process))

    def partition(self, time: float, a: Hashable, b: Hashable,
                  heal_at: float | None = None) -> "FaultPlan":
        """Cut link ``a--b`` at ``time``; optionally heal at ``heal_at``."""
        self.add(FaultEvent(time, PARTITION, target=(a, b)))
        if heal_at is not None:
            if heal_at <= time:
                raise FaultPlanError(
                    f"heal time {heal_at} must be after partition time {time}")
            self.heal(heal_at, a, b)
        return self

    def heal(self, time: float, a: Hashable, b: Hashable) -> "FaultPlan":
        """Restore link ``a--b`` at ``time``."""
        return self.add(FaultEvent(time, HEAL, target=(a, b)))

    def slow(self, time: float, factor: float,
             until: float | None = None) -> "FaultPlan":
        """Multiply remote latencies by ``factor`` from ``time`` on.

        With ``until`` the factor reverts to 1.0 at that time (a spike).
        """
        if factor <= 0:
            raise FaultPlanError(f"latency factor must be > 0, got {factor}")
        self.add(FaultEvent(time, SLOW, value=float(factor)))
        if until is not None:
            if until <= time:
                raise FaultPlanError(
                    f"spike end {until} must be after start {time}")
            self.add(FaultEvent(until, SLOW, value=1.0))
        return self

    def drop(self, time: float, retries: int,
             until: float | None = None) -> "FaultPlan":
        """Make remote links lossy: each message retransmitted ``retries``
        times from ``time`` on; with ``until``, losses stop at that time."""
        if retries < 0:
            raise FaultPlanError(f"drop retries must be >= 0, got {retries}")
        self.add(FaultEvent(time, DROP, value=int(retries)))
        if until is not None:
            if until <= time:
                raise FaultPlanError(
                    f"drop window end {until} must be after start {time}")
            self.add(FaultEvent(until, DROP, value=0))
        return self

    # -- installation ------------------------------------------------------

    def install(self, scheduler: "Scheduler",
                transport: "NetworkTransport | None" = None
                ) -> list["TimerHandle"]:
        """Arm one timer per event; return the handles (for cancellation).

        Network events require ``transport``; purely crash-based plans do
        not.  When a transport is supplied, its partition-aware filter is
        installed so cut links actually block rendezvous; if the scheduler
        already has a *different* match filter, the two are composed with
        AND (both must allow a pair), so neither silently shadows the
        other.
        """
        for event in self.events:
            if event.kind in _TRANSPORT_KINDS and transport is None:
                raise FaultPlanError(
                    f"event {event.describe()!r} needs a NetworkTransport")
            if event.time < scheduler.now:
                raise FaultPlanError(
                    f"event {event.describe()!r} is in the past "
                    f"(now={scheduler.now})")
        if transport is not None:
            existing = scheduler.match_filter
            # ``transport.match_filter`` is a bound method, recreated per
            # access — compare with ``==`` so re-installing the same
            # transport stays idempotent instead of stacking wrappers.
            if existing is None:
                scheduler.match_filter = transport.match_filter
            elif existing != transport.match_filter:
                def composed(sender, receiver, _first=existing,
                             _second=transport.match_filter) -> bool:
                    return (_first(sender, receiver)
                            and _second(sender, receiver))
                scheduler.match_filter = composed
        return [scheduler.schedule_at(
                    event.time, self._action(scheduler, transport, event))
                for event in self.events]

    def _action(self, scheduler: "Scheduler",
                transport: "NetworkTransport | None", event: FaultEvent):
        def fire() -> None:
            applied = True
            if event.kind == CRASH:
                process = scheduler.processes.get(event.target)
                applied = process is not None and not process.finished
                scheduler.tracer.emit(scheduler.now, EventKind.FAULT,
                                      event.target, fault=event.kind,
                                      applied=applied)
                if applied:
                    scheduler.kill(event.target)
                return
            a, b = event.target if event.kind in (PARTITION, HEAL) else (None, None)
            if event.kind == PARTITION:
                transport.partition(a, b)
            elif event.kind == HEAL:
                transport.heal(a, b)
            elif event.kind == SLOW:
                transport.latency_factor = event.value
            elif event.kind == DROP:
                transport.drop_retries = event.value
            scheduler.tracer.emit(scheduler.now, EventKind.FAULT, None,
                                  fault=event.kind, target=event.target,
                                  value=event.value, applied=applied)
        return fire

    # -- introspection / serialization -------------------------------------

    def describe(self) -> list[str]:
        """One line per event, in firing order."""
        return [event.describe() for event in self.events]

    def to_jsonable(self) -> dict[str, Any]:
        """Plain-JSON encoding: the replayable form of a found schedule.

        Round-trips through :meth:`from_jsonable`; the exploration CLI
        writes this shape into counterexample files and the resume
        registry carries it inside journal headers.
        """
        return {"events": [event.to_jsonable() for event in self.events]}

    @classmethod
    def from_jsonable(cls, data: Any) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_jsonable` output (or a bare
        event list)."""
        if isinstance(data, dict):
            data = data.get("events", [])
        if not isinstance(data, list):
            raise FaultPlanError(f"fault plan must be a mapping with "
                                 f"'events' or a list, got {data!r}")
        return cls(FaultEvent.from_jsonable(event) for event in data)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan {len(self.events)} events>"


def draw_plan(contract: "FaultContract", seed: int) -> FaultPlan:
    """The seeded fault plan of ``contract``: every soak run's plan.

    Each listed process may crash once, in the first half of the
    horizon and after its floor (a critical one a little less often);
    each restarted process crashes once more.  One listed link may be
    cut early and healed a little later, or never where healing is not
    required.  Latency and drop windows appear only where transport
    faults are allowed.  The draws come from ``random.Random(seed)``
    alone, so a run handed the plan is the run that drew it.
    """
    rng = random.Random(seed)
    horizon = contract.horizon
    plan = FaultPlan()
    for process in contract.processes:
        chance = 0.25 if process in contract.critical else 0.3
        crashes = (process in contract.restarted) + (rng.random() < chance)
        floor = contract.crash_after.get(process)
        earliest = 0.2 if floor is None else floor + 0.5
        for _ in range(crashes):
            plan.crash(round(rng.uniform(earliest, horizon / 2), 3), process)
    if contract.links and rng.random() < 0.5:
        a, b = rng.choice(contract.links)
        start = round(rng.uniform(0.2, 5.0), 3)
        if not contract.heal_required and rng.random() < 0.35:
            plan.partition(start, a, b)
        else:
            plan.partition(start, a, b,
                           heal_at=round(start + rng.uniform(0.5, 4.0), 3))
    if contract.transport_faults:
        if rng.random() < 0.3:
            start = round(rng.uniform(0.2, horizon / 3), 3)
            plan.slow(start, round(rng.uniform(2.0, 5.0), 2),
                      until=round(start + rng.uniform(1.0, 5.0), 3))
        if rng.random() < 0.3:
            start = round(rng.uniform(0.2, horizon / 3), 3)
            plan.drop(start, rng.randint(1, 3),
                      until=round(start + rng.uniform(1.0, 5.0), 3))
    return plan


# -------------------------------------------------------------------------
# Journal corruption: faults against the durability layer itself
# -------------------------------------------------------------------------

TRUNCATE = "truncate"
BITFLIP = "bitflip"
GARBAGE = "garbage"

CORRUPTION_MODES = (TRUNCATE, BITFLIP, GARBAGE)


@dataclasses.dataclass(frozen=True, slots=True)
class JournalCorruptionPlan:
    """A seeded, post-hoc corruption of a durable journal file.

    Unlike :class:`FaultPlan`, which schedules misfortune *inside* the
    virtual world, this plan attacks the persistence layer from outside —
    the damage a crashing kernel, a cheap disk, or a half-finished write
    can inflict on the file itself:

    ``truncate``
        Drop the final ``intensity`` bytes: the classic torn last write.
    ``bitflip``
        Flip ``intensity`` random bits inside the file's tail region: a
        silent media error the CRC framing must catch.
    ``garbage``
        Append ``intensity`` random bytes: a torn write that got further
        than its length prefix.

    All randomness comes from ``seed``, so a corruption that exposes a
    bug is its own reproduction recipe.  The 8-byte magic preamble is
    never touched: these are crash-shaped faults, and no crash rewrites
    the start of an append-only file — readers treat the damage as a
    droppable torn tail, not a structural error.
    """

    seed: int
    mode: str = TRUNCATE
    intensity: int = 8

    #: Bitflips land within this many bytes of the end of the file.
    TAIL_REGION = 64

    def __post_init__(self) -> None:
        if self.mode not in CORRUPTION_MODES:
            raise FaultPlanError(f"unknown corruption mode {self.mode!r}; "
                                 f"choose from {CORRUPTION_MODES}")
        if self.intensity < 1:
            raise FaultPlanError(
                f"corruption intensity must be >= 1, got {self.intensity}")

    def apply(self, path: str) -> str:
        """Corrupt the file at ``path`` in place; return a description.

        The journal magic (first 8 bytes) is preserved; truncation never
        shortens the file below it.
        """
        rng = random.Random(self.seed)
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
            preamble = 8
            if self.mode == TRUNCATE:
                new_size = max(len(data) - self.intensity, preamble)
                handle.truncate(new_size)
                return (f"truncated {len(data) - new_size} byte(s) "
                        f"from {path}")
            if self.mode == BITFLIP:
                low = max(preamble, len(data) - self.TAIL_REGION)
                if low >= len(data):
                    return f"nothing to flip in {path} (file is all magic)"
                for _ in range(self.intensity):
                    position = rng.randrange(low, len(data))
                    data[position] ^= 1 << rng.randrange(8)
                handle.seek(0)
                handle.write(data)
                return (f"flipped {self.intensity} bit(s) in the last "
                        f"{len(data) - low} byte(s) of {path}")
            handle.seek(0, 2)
            handle.write(bytes(rng.randrange(256)
                               for _ in range(self.intensity)))
            return f"appended {self.intensity} garbage byte(s) to {path}"

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (f"journal {self.mode} intensity={self.intensity} "
                f"(seed {self.seed})")

    def to_jsonable(self) -> dict[str, Any]:
        """Plain-JSON encoding; round-trips through :meth:`from_jsonable`."""
        return {"seed": self.seed, "mode": self.mode,
                "intensity": self.intensity}

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> "JournalCorruptionPlan":
        """Rebuild a corruption plan from :meth:`to_jsonable` output."""
        if not isinstance(data, dict):
            raise FaultPlanError(f"corruption plan must be a mapping, "
                                 f"got {data!r}")
        return cls(seed=data.get("seed", 0), mode=data.get("mode", TRUNCATE),
                   intensity=data.get("intensity", 8))
