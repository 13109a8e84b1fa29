"""Journal frame production: turning kernel callbacks into frames.

:class:`FrameSink` is the shared half of recording *and* replay: it is an
instrumentation sink (plus tracer listener) that renders every
nondeterminism-relevant scheduler action into a canonical JSON-able frame
dict — trace events, RNG/timer decisions, and a periodic state-digest
snapshot every ``snapshot_every`` commits.  What happens to each frame is
the subclass's business: :class:`JournalRecorder` appends it to a
:class:`~repro.persist.journal.JournalWriter`; the replay validator in
:mod:`repro.persist.resume` compares it against the recorded journal.

Because both sides derive frames from the *same* callbacks in the same
single-threaded order, frame-by-frame equality of two runs is exactly
equality of their resolved nondeterminism — which is the property resume
verifies.

Hot-path cost: the recorder runs *write-behind*.  In the default (lazy)
mode the scheduler's callbacks only note a reference to the immutable
:class:`~repro.runtime.tracing.TraceEvent` (or a small decision tuple);
rendering to JSON and writing happen in batches at durability points —
:meth:`JournalRecorder.barrier`, an explicit sync, buffer pressure, or
:meth:`finish`.  That is the classic group-commit write-ahead-log trade:
frames are guaranteed on disk exactly at barriers, and the per-event cost
inside the scheduler loop is one list append.  Passing ``fsync_every``
(or arming ``kill_after_frames``) switches to eager mode, where every
frame is rendered, written and counted immediately — what the kill -9
harness uses to place a crash point with single-frame precision.
Deferred rendering relies on the tracer's contract that events are
immutable once emitted; state-digest snapshots are always rendered
eagerly since they sample live scheduler state.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Hashable

from ..errors import PersistError
from ..obs.export import jsonable
from ..runtime.instrument import Sink, stack_sink
from ..runtime.scheduler import Scheduler
from ..runtime.tracing import TraceEvent
from . import journal as journal_format
from .journal import JournalWriter

#: Default snapshot cadence: one state-digest frame every N commits.
SNAPSHOT_EVERY = 64

#: Journal format version stamped into every header frame.
FORMAT_VERSION = 1

#: Lazy recorders spill to the writer when this many frames are pending.
#: Generous on purpose: the tracer retains every TraceEvent for the whole
#: run anyway, so the pending buffer holds references (plus small decision
#: tuples), and a spill inside the run loop pays the full render+encode
#: cost on the scheduler's critical path — exactly what lazy mode exists
#: to avoid.
SPILL_LIMIT = 65536


def header_record(seed: int, scenario: str,
                  options: dict[str, Any] | None = None,
                  snapshot_every: int = SNAPSHOT_EVERY) -> dict[str, Any]:
    """Build the header frame for a run of ``scenario`` at ``seed``.

    ``options`` must be JSON-able: together with the seed they are the
    complete recipe for re-running the scenario, so resume can rebuild the
    run from the header alone.  The snapshot cadence rides along because a
    replay must snapshot at the same commits to stay frame-aligned.
    """
    return {"k": journal_format.HEADER, "version": FORMAT_VERSION,
            "seed": seed, "scenario": scenario,
            "options": jsonable(options or {}),
            "snapshot_every": snapshot_every}


def event_record(event: TraceEvent) -> dict[str, Any]:
    """Canonical frame for one trace event."""
    return {"k": journal_format.EVENT, "kind": event.kind.value,
            "seq": event.seq, "t": event.time, "p": repr(event.process),
            "d": jsonable(event.details)}


def decision_record(time: float, kind: str, subject: Hashable,
                    payload: Any) -> dict[str, Any]:
    """Canonical frame for one RNG/timer decision."""
    return {"k": journal_format.DECISION, "kind": kind, "t": time,
            "subject": repr(subject), "payload": jsonable(payload)}


def snapshot_record(commits: int, capture: tuple) -> dict[str, Any]:
    """Canonical snapshot frame from a :meth:`Scheduler.state_capture`."""
    return {"k": journal_format.SNAPSHOT, "commits": commits,
            "digest": jsonable(Scheduler.digest_of(capture))}


@dataclasses.dataclass(slots=True)
class _PendingSnapshot:
    """A snapshot noted on the hot path, awaiting digest rendering."""

    commits: int
    capture: tuple


class FrameSink(Sink):
    """Base sink that renders scheduler activity into journal frames.

    Subclasses implement :meth:`_note_event`, :meth:`_note_decision` and
    :meth:`_note_frame`; the attachment protocol, frame shapes, and
    snapshot cadence are shared, which is what guarantees a recording run
    and a replaying run describe themselves identically.
    """

    def __init__(self, *, snapshot_every: int = SNAPSHOT_EVERY):
        if snapshot_every < 1:
            raise PersistError("snapshot_every must be >= 1")
        self.snapshot_every = snapshot_every
        self.scheduler: Scheduler | None = None

    # -- wiring ------------------------------------------------------------

    def attach(self, scheduler: Scheduler) -> "FrameSink":
        """Install on ``scheduler``, composing with any existing sink.

        Must be called at the same point of the run on both the recording
        and the replaying side (the scenario runners do this right after
        constructing the scheduler and transport), or the two frame
        streams would start at different offsets.
        """
        if self.scheduler is not None:
            raise PersistError("this frame sink is already attached")
        self.scheduler = scheduler
        scheduler.sink = stack_sink(scheduler.sink, self)
        scheduler.tracer.add_listener(self.event_listener())
        # Snapshot cadence rides the kernel's commit-cadence slot rather
        # than Sink.on_commit: two integer ops per commit instead of a
        # dispatched Python call, on both the recording and replay side.
        scheduler.set_commit_cadence(self.snapshot_every,
                                     self._note_snapshot)
        return self

    def event_listener(self) -> Any:
        """The callable registered with the tracer for trace events.

        Overridable so a hot-path subclass can hand the tracer something
        cheaper than a bound Python method.
        """
        return self.on_event

    # -- kernel callbacks --------------------------------------------------

    def on_event(self, event: TraceEvent) -> None:
        self._note_event(event)

    def on_decision(self, time: float, kind: str, subject: Hashable,
                    payload: Any) -> None:
        self._note_decision(time, kind, subject, payload)

    def _note_snapshot(self) -> None:
        # Snapshots sample live scheduler state: render now by default.
        # The lazy recorder overrides this with a cheap state capture.
        self._note_frame(self._snapshot_record())

    def _snapshot_record(self) -> dict[str, Any]:
        assert self.scheduler is not None
        return snapshot_record(self.scheduler.commit_count,
                               self.scheduler.state_capture())

    def _end_record(self, status: str) -> dict[str, Any]:
        record: dict[str, Any] = {"k": journal_format.END, "status": status,
                                  "commits": 0}
        if self.scheduler is not None:
            record["commits"] = self.scheduler.commit_count
            record["digest"] = jsonable(self.scheduler.state_digest())
        return record

    # -- subclass responsibilities ----------------------------------------

    def _note_event(self, event: TraceEvent) -> None:
        self._note_frame(event_record(event))

    def _note_decision(self, time: float, kind: str, subject: Hashable,
                       payload: Any) -> None:
        self._note_frame(decision_record(time, kind, subject, payload))

    def _note_frame(self, record: dict[str, Any]) -> None:
        raise NotImplementedError

    def finish(self, status: str) -> None:
        """The run ended; emit/verify the terminal frame and release."""
        raise NotImplementedError

    def barrier(self) -> None:
        """Make everything emitted so far durable (no-op off-disk)."""


class JournalRecorder(FrameSink):
    """Record a run's frames into a durable journal file.

    Construction opens the file and writes the header, so the journal
    identifies its run even if the process dies before the first frame.
    ``kill_after_frames`` arms the crash harness: after that many frames
    (header included) have been appended *and synced*, the recorder
    SIGKILLs the current process, simulating a crash whose journal is
    guaranteed durable up to the kill point.
    Setting either ``fsync_every`` or ``kill_after_frames`` selects eager
    mode (render + write per frame); otherwise frames buffer in memory
    and spill at barriers, buffer pressure, or the end of the run.
    """

    def __init__(self, path: str | os.PathLike, *, seed: int, scenario: str,
                 options: dict[str, Any] | None = None,
                 snapshot_every: int = SNAPSHOT_EVERY,
                 fsync_every: int | None = None,
                 kill_after_frames: int | None = None):
        super().__init__(snapshot_every=snapshot_every)
        self.writer = JournalWriter(path, fsync_every=fsync_every)
        self.kill_after_frames = kill_after_frames
        self._eager = (fsync_every is not None
                       or kill_after_frames is not None)
        #: Noted-but-unrendered entries: TraceEvents, decision tuples, and
        #: pre-rendered dicts (snapshots), in emission order.
        self._pending: list[Any] = []
        self.writer.append(header_record(seed, scenario, options,
                                         snapshot_every=snapshot_every))
        self._maybe_kill()

    @property
    def path(self) -> str:
        return self.writer.path

    # -- hot path ----------------------------------------------------------
    # The public callbacks are overridden (not just the _note_* hooks) to
    # flatten one dispatch layer: these run once per trace event, RNG
    # decision and commit, and at N=200 the dispatch overhead alone is
    # measurable against the kernel's ~25us/commit budget.

    def on_event(self, event: TraceEvent) -> None:
        if self._eager:
            self._write(event_record(event))
        else:
            self._pending.append(event)

    _note_event = on_event

    def event_listener(self) -> Any:
        # Lazy mode hands the tracer the pending list's own C-level
        # append: per-event recording cost becomes one list insertion.
        # _spill keeps the list object alive, so the callable stays valid.
        if self._eager:
            return self.on_event
        return self._pending.append

    def on_decision(self, time: float, kind: str, subject: Hashable,
                    payload: Any) -> None:
        if self._eager:
            self._write(decision_record(time, kind, subject, payload))
        else:
            self._pending.append((time, kind, subject, payload))
            if len(self._pending) >= SPILL_LIMIT:
                self._spill()

    def _note_decision(self, time: float, kind: str, subject: Hashable,
                       payload: Any) -> None:
        self.on_decision(time, kind, subject, payload)

    def _note_frame(self, record: dict[str, Any]) -> None:
        if self._eager:
            self._write(record)
        else:
            self._pending.append(record)
            if len(self._pending) >= SPILL_LIMIT:
                self._spill()

    def _note_snapshot(self) -> None:
        if self._eager:
            self._write(self._snapshot_record())
            return
        assert self.scheduler is not None
        self._pending.append(_PendingSnapshot(
            self.scheduler.commit_count, self.scheduler.state_capture()))
        # Trace events bypass the per-append limit check (they go through
        # the raw list append); bound the buffer at snapshot cadence
        # instead.  The bound stays approximate by at most one snapshot
        # interval's worth of events, which is fine for a memory guard.
        if len(self._pending) >= SPILL_LIMIT:
            self._spill()

    # -- spill / durability ------------------------------------------------

    def _write(self, record: dict[str, Any]) -> None:
        self.writer.append(record)
        self._maybe_kill()

    def _spill(self) -> None:
        """Render and write every pending entry, in order.

        Drains in place — the list object must survive because the
        tracer holds its bound ``append`` as the event listener.
        """
        pending = self._pending[:]
        self._pending.clear()
        for entry in pending:
            if isinstance(entry, TraceEvent):
                self._write(event_record(entry))
            elif isinstance(entry, _PendingSnapshot):
                self._write(snapshot_record(entry.commits, entry.capture))
            elif isinstance(entry, dict):
                self._write(entry)
            else:
                self._write(decision_record(*entry))

    def _maybe_kill(self) -> None:
        if (self.kill_after_frames is not None
                and self.writer.frames_written >= self.kill_after_frames):
            self.writer.sync()
            _sigkill_self()

    def finish(self, status: str) -> None:
        """Append the end frame (status + final digest) and close."""
        self._spill()
        self._write(self._end_record(status))
        self.writer.close()
        self._release_cadence()

    def barrier(self) -> None:
        """Flush and fsync: every frame noted so far survives a crash."""
        self._spill()
        self.writer.sync()

    def _release_cadence(self) -> None:
        # A commit after close would otherwise snapshot into a closed
        # writer; no scheduler should commit past finish, but the hook
        # must not be the thing that turns that bug into corruption.
        if self.scheduler is not None:
            self.scheduler.set_commit_cadence(1, None)

    def close(self) -> None:
        """Spill and close without an end frame (reads as a crashed run)."""
        self._spill()
        self.writer.close()
        self._release_cadence()


def _sigkill_self() -> None:  # pragma: no cover - exercised via subprocess
    """Die like a crash: no atexit, no flushing beyond what already ran."""
    import signal
    os.kill(os.getpid(), signal.SIGKILL)
