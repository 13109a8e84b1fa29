"""Journal frame capture: one path from kernel callbacks to frames.

:class:`FrameSink` is the only way a run's frames are captured, for
recording and for resume alike.  It is a kernel observer whose hot path
does three things: it appends each
:class:`~repro.runtime.tracing.TraceEvent` to a pending list (the list's
own ``append`` is the tracer listener), it appends each RNG/timer
decision as a tuple, and every :data:`SNAPSHOT_EVERY` commits it
appends one cheap ``state_capture()``.  At durability points —
:meth:`FrameSink.barrier`, :meth:`FrameSink.finish`, or
:data:`SPILL_LIMIT` pending entries — it renders the pending entries in
order into canonical JSON-able frame dicts and hands each to
:meth:`FrameSink._emit`.  The base sink keeps the frames in ``frames``,
which is what :func:`~repro.persist.resume.resume` compares with the
journal once the run is over; :class:`JournalRecorder` appends them to a
:class:`~repro.persist.journal.JournalWriter` instead.

Because a recording run and a resumed run capture frames through the
same code in the same single-threaded order, frame-by-frame equality of
two runs is exactly equality of their resolved nondeterminism — which
is the property resume verifies.

This is the group-commit write-ahead-log trade: frames are guaranteed
on disk exactly at barriers, and the per-event cost inside the
scheduler loop is one list append.  Rendering late relies on the
tracer's contract that events are immutable once emitted, and on a
state capture being a snapshot of the state it sampled.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Hashable

from ..errors import PersistError
from ..obs.export import jsonable
from ..runtime.instrument import Sink
from ..runtime.scheduler import Scheduler
from ..runtime.tracing import TraceEvent
from . import journal as journal_format
from .journal import JournalWriter

#: Snapshot cadence: one state-digest frame every N commits.  Every
#: journal header carries it, and resume rejects any other value.
SNAPSHOT_EVERY = 64

#: Journal format version stamped into every header frame.
FORMAT_VERSION = 1

#: A frame sink renders its pending entries when this many are waiting.
#: Generous on purpose: the tracer retains every TraceEvent for the whole
#: run anyway, so the pending list holds references (plus small decision
#: tuples), and a spill inside the run loop pays the full render+encode
#: cost on the scheduler's critical path.
SPILL_LIMIT = 65536


def header_record(seed: int, scenario: str,
                  options: dict[str, Any] | None = None) -> dict[str, Any]:
    """Build the header frame for a run of ``scenario`` at ``seed``.

    ``options`` must be JSON-able: together with the seed they are the
    complete recipe for re-running the scenario, so resume can rebuild the
    run from the header alone.  The snapshot cadence rides along so a
    reader can tell which commits the snapshot frames sample.
    """
    return {"k": journal_format.HEADER, "version": FORMAT_VERSION,
            "seed": seed, "scenario": scenario,
            "options": jsonable(options or {}),
            "snapshot_every": SNAPSHOT_EVERY}


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
    """Capture a run's frames; the base sink keeps them in ``frames``.

    Attach it where the recorder attaches (the scenario runners do so in
    :func:`~repro.scenarios.world`), so a recorded and a resumed run
    describe themselves identically.  Subclasses decide what happens to
    each rendered frame by overriding :meth:`_emit`.
    """

    def __init__(self) -> None:
        self.scheduler: Scheduler | None = None
        #: Captured but not yet rendered: TraceEvents, decision tuples
        #: and pending snapshots, in emission order.
        self._pending: list[Any] = []
        self.frames: list[dict[str, Any]] = []

    def attach(self, scheduler: Scheduler) -> "FrameSink":
        """Observe ``scheduler`` beside any observer already attached."""
        if self.scheduler is not None:
            raise PersistError("this frame sink is already attached")
        self.scheduler = scheduler
        scheduler.observe(self)
        # The pending list's own C-level append is the event listener;
        # _spill drains the list in place, so the callable stays valid.
        scheduler.tracer.add_listener(self._pending.append)
        # Snapshot cadence rides the kernel's commit-cadence slot rather
        # than Sink.on_commit: two integer ops per commit instead of a
        # dispatched Python call.
        scheduler.set_commit_cadence(SNAPSHOT_EVERY, self._note_snapshot)
        return self

    # -- hot path ----------------------------------------------------------

    def on_decision(self, time: float, kind: str, subject: Hashable,
                    payload: Any) -> None:
        self._pending.append((time, kind, subject, payload))
        if len(self._pending) >= SPILL_LIMIT:
            self._spill()

    def _note_snapshot(self) -> None:
        assert self.scheduler is not None
        self._pending.append(_PendingSnapshot(
            self.scheduler.commit_count, self.scheduler.state_capture()))
        # Trace events bypass the limit check (they go through the raw
        # list append); bound the list at snapshot cadence instead.  The
        # bound stays approximate by at most one snapshot interval's
        # worth of events, which is fine for a memory guard.
        if len(self._pending) >= SPILL_LIMIT:
            self._spill()

    # -- durability points -------------------------------------------------

    def _spill(self) -> None:
        """Render every pending entry, in order, and emit each frame."""
        pending = self._pending[:]
        self._pending.clear()
        for entry in pending:
            if isinstance(entry, TraceEvent):
                self._emit(event_record(entry))
            elif isinstance(entry, _PendingSnapshot):
                self._emit(snapshot_record(entry.commits, entry.capture))
            else:
                self._emit(decision_record(*entry))

    def _emit(self, record: dict[str, Any]) -> None:
        self.frames.append(record)

    def barrier(self) -> None:
        """Render everything captured so far."""
        self._spill()

    def finish(self, status: str) -> None:
        """The run ended: emit the end frame (status + final digest)."""
        self._spill()
        record: dict[str, Any] = {"k": journal_format.END, "status": status,
                                  "commits": 0}
        if self.scheduler is not None:
            record["commits"] = self.scheduler.commit_count
            record["digest"] = jsonable(self.scheduler.state_digest())
        self._emit(record)
        self._release_cadence()

    def _release_cadence(self) -> None:
        # A commit after the end would otherwise snapshot past the end
        # frame; no scheduler should commit past finish, but the hook
        # must not be the thing that turns that bug into corruption.
        if self.scheduler is not None:
            self.scheduler.set_commit_cadence(1, None)


class JournalRecorder(FrameSink):
    """Record a run's frames into a durable journal file.

    Construction opens the file and writes the header, so the journal
    identifies its run even if the process dies before the first frame.
    ``kill_after_frames`` arms the crash harness: once that many frames
    (header included) are written, the recorder syncs the file and
    SIGKILLs the current process, simulating a crash whose journal is
    durable exactly up to the kill point.  Frames are written at
    durability points, so the kill lands inside the spill that writes
    that frame: at a recovery barrier or at the end of the run.
    """

    def __init__(self, path: str | os.PathLike, *, seed: int, scenario: str,
                 options: dict[str, Any] | None = None,
                 kill_after_frames: int | None = None):
        super().__init__()
        self.writer = JournalWriter(path)
        self.kill_after_frames = kill_after_frames
        self._emit(header_record(seed, scenario, options))

    def _emit(self, record: dict[str, Any]) -> None:
        self.writer.append(record)
        # frames_written counts up by one, so this fires exactly once.
        if self.writer.frames_written == self.kill_after_frames:
            self.writer.sync()
            _sigkill_self()

    def barrier(self) -> None:
        """Write and fsync: every frame captured so far survives a crash."""
        self._spill()
        self.writer.sync()

    def finish(self, status: str) -> None:
        """Append the end frame (status + final digest) and close."""
        super().finish(status)
        self.writer.close()

    def close(self) -> None:
        """Write and close without an end frame (reads as a crashed run)."""
        self._spill()
        self.writer.close()
        self._release_cadence()


def _sigkill_self() -> None:  # pragma: no cover - exercised via subprocess
    """Die like a crash: no atexit, no flushing beyond what already ran."""
    import signal
    os.kill(os.getpid(), signal.SIGKILL)
