"""Restart policies: deterministic respawn with backoff and intensity caps.

A :class:`RestartPolicy` watches the scheduler's kill notifications.  When
a managed process crashes, the policy schedules a respawn of a *fresh*
body (from a caller-supplied factory) after an exponential backoff in
virtual time, with seeded jitter so simultaneous crashes do not restart in
lockstep — and with a restart intensity cap: more than ``max_restarts``
restarts of one process inside a sliding virtual-time ``window`` escalate
to *quarantine* (the process stays down), preventing crash loops from
burning the virtual clock forever.

Determinism: the jitter RNG is seeded independently of the scheduler's,
all delays are virtual, and every decision is emitted into the trace as a
:data:`~repro.runtime.EventKind.RECOVERY` event (actions
``restart_scheduled``, ``restart``, ``restart_skipped``,
``restart_abandoned``, ``quarantine``), so a recovering run replays
byte-identically from its seed.

Role re-enrollment falls out of the script layer for free: a respawned
body that calls ``instance.enroll`` is pooled and drafted exactly like
any other request — into the vacated role of a still-unsealed
performance (pre-seal refill), or into the *next* performance when the
crash happened after the seal (the absent role returns for the following
activation, the paper's successive-performances rule intact).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Hashable, Mapping, TYPE_CHECKING

from ..errors import RecoveryError
from ..runtime import EventKind
from ..runtime.process import Process, ProcessBody

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.scheduler import Scheduler

#: A factory producing a fresh process body per (re)start.
BodyFactory = Callable[[], ProcessBody]


@dataclasses.dataclass(frozen=True, slots=True)
class BackoffSchedule:
    """Exponential backoff shape for restart delays (virtual time).

    The delay before restart attempt ``attempt`` (0-based) is
    ``min(base * factor**attempt, cap)``, stretched by up to ``jitter``
    (fractional) drawn from the policy's seeded RNG.  Jitter keeps
    simultaneously-crashed processes from restarting at the identical
    instant (which would re-collide them forever in symmetric protocols)
    while staying a pure function of the seed.
    """

    base: float = 0.5
    factor: float = 2.0
    cap: float = 8.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.base < 0 or self.cap < 0:
            raise RecoveryError("backoff base and cap must be non-negative")
        if self.factor < 1:
            raise RecoveryError("backoff factor must be >= 1")
        if not 0 <= self.jitter < 1:
            raise RecoveryError("jitter must be in [0, 1)")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """The (jittered) delay before restart ``attempt``."""
        raw = min(self.base * self.factor ** attempt, self.cap)
        if self.jitter:
            raw *= 1 + self.jitter * rng.random()
        # Round so formatted traces render identically across platforms.
        return round(raw, 6)


class RestartPolicy:
    """Respawn crashed processes, bounded by a sliding-window intensity cap.

    Parameters
    ----------
    scheduler:
        The scheduler whose kill notifications to watch.
    bodies:
        Maps process names to body *factories*; only named processes are
        managed, every other crash is ignored.  A factory is invoked per
        restart so each attempt gets a fresh generator.
    backoff:
        The :class:`BackoffSchedule`; defaults to ``BackoffSchedule()``.
    max_restarts / window:
        The intensity cap: if a crash arrives when ``max_restarts``
        restarts of that process already happened within the trailing
        ``window`` of virtual time, the process is quarantined instead
        (it joins :attr:`quarantined`, and the policy never touches the
        name again).  The backoff exponent is the same windowed count, so
        a process that stays up long enough earns a fresh short backoff.
    seed:
        Seed for the jitter RNG (independent of the scheduler's RNG, so
        adding recovery does not perturb unrelated scheduling choices).
    only_while:
        Optional predicate consulted before scheduling *and* before
        executing a restart; once false, restarts are abandoned (used by
        harnesses to stop recovering after the workload's goal is met).
    journal:
        Optional run hook.  When given, ``journal.barrier()`` (flush +
        fsync of an attached
        :class:`~repro.persist.record.JournalRecorder`) is called
        immediately after every recovery decision is traced —
        restart_scheduled, restart, and quarantine — so a host-process
        kill -9 *between* the decision and its effect finds the decision
        already durable and :func:`~repro.persist.resume.resume` replays
        it instead of losing it.  Resume's frame sink only renders at a
        barrier, so the replayed frames are the same.  Without a journal
        the policy restarts in-world and nothing more.
    """

    def __init__(self, scheduler: "Scheduler",
                 bodies: Mapping[Hashable, BodyFactory], *,
                 backoff: BackoffSchedule | None = None,
                 max_restarts: int = 3, window: float = 10.0,
                 seed: int = 0,
                 only_while: Callable[[], bool] | None = None,
                 journal: Any = None):
        if max_restarts < 1:
            raise RecoveryError("max_restarts must be >= 1")
        if window <= 0:
            raise RecoveryError("window must be > 0")
        self.scheduler = scheduler
        self.bodies = dict(bodies)
        self.backoff = backoff if backoff is not None else BackoffSchedule()
        self.max_restarts = max_restarts
        self.window = window
        self.rng = random.Random(seed)
        self.only_while = only_while
        self.journal = journal
        self.restarts = 0
        self.quarantined: set[Hashable] = set()
        self._history: dict[Hashable, list[float]] = {}
        scheduler.on_kill(self._crashed)

    def _barrier(self) -> None:
        """Make the just-traced recovery decision durable (with a journal)."""
        if self.journal is not None:
            self.journal.barrier()

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------

    def _crashed(self, process: Process) -> None:
        name = process.name
        if name not in self.bodies or name in self.quarantined:
            return
        if self.only_while is not None and not self.only_while():
            return
        scheduler = self.scheduler
        now = scheduler.now
        history = self._history.setdefault(name, [])
        history[:] = [t for t in history if t > now - self.window]
        if len(history) >= self.max_restarts:
            self.quarantined.add(name)
            scheduler.tracer.emit(now, EventKind.RECOVERY, name,
                                  action="quarantine",
                                  restarts=len(history),
                                  window=self.window)
            self._barrier()
            return
        attempt = len(history)
        delay = self.backoff.delay(attempt, self.rng)
        history.append(now)
        scheduler.tracer.emit(now, EventKind.RECOVERY, name,
                              action="restart_scheduled",
                              attempt=attempt, delay=delay)
        self._barrier()
        # Ownerless timer: it must fire even though its subject is dead.
        # A late firing after the goal is met is a traced no-op, so the
        # timer never counts as residue and never wedges quiescence.
        scheduler.schedule_at(now + delay, lambda n=name: self._respawn(n))

    def _respawn(self, name: Hashable) -> None:
        scheduler = self.scheduler
        if (name in self.quarantined
                or (self.only_while is not None and not self.only_while())):
            scheduler.tracer.emit(scheduler.now, EventKind.RECOVERY, name,
                                  action="restart_abandoned")
            return
        record = scheduler.processes.get(name)
        if record is not None and not record.finished:
            # Someone else already brought the name back (e.g. a second
            # policy or the harness itself); restarting now would raise.
            scheduler.tracer.emit(scheduler.now, EventKind.RECOVERY, name,
                                  action="restart_skipped")
            return
        self.restarts += 1
        scheduler.tracer.emit(scheduler.now, EventKind.RECOVERY, name,
                              action="restart",
                              total_restarts=self.restarts)
        self._barrier()
        scheduler.respawn(name, self.bodies[name]())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RestartPolicy {len(self.bodies)} managed "
                f"restarts={self.restarts} "
                f"quarantined={sorted(self.quarantined, key=repr)!r}>")
