"""Durable performance journal: crash-consistent record + deterministic resume.

The runtime kernel resolves every piece of nondeterminism through a
seeded RNG and a virtual-time timer wheel, which makes any run a pure
function of ``(scenario, seed, options)``.  This package turns that
property into durability:

* :mod:`~repro.persist.journal` — the on-disk format: an append-only,
  CRC32-framed, length-prefixed write-ahead log whose only possible
  crash damage is a detectable (and droppable) torn tail;
* :mod:`~repro.persist.record` — :class:`FrameSink`, the one path by
  which a run's frames are captured: every nondeterminism-resolving
  scheduler action (trace events, RNG choices, timer fires) plus
  periodic state-digest snapshots, rendered at durability points;
  :class:`JournalRecorder` writes them into a journal;
* :mod:`~repro.persist.resume` — :func:`resume`: re-run the header's
  recipe with a :class:`FrameSink` attached, compare its frames with the
  journal's once the run is over, and report the frames past the crash
  point as the continuation;
* :mod:`~repro.persist.chaos` — :func:`kill9_resume`, a subprocess
  harness that SIGKILLs a journaled run for real once it has written a
  chosen number of frames, and proves the resumed run commits the
  identical rendezvous sequence.

See DESIGN.md §12 for the format and the replay-validation argument.
"""

from .chaos import (COMPLETED_BEFORE_KILL, Kill9Report, kill9_resume,
                    record_run, run_kill9_child, tear_tail)
from .journal import (DECISION, END, EVENT, HEADER, MAGIC, SNAPSHOT,
                      JournalDocument, JournalWriter, encode_frame,
                      read_journal)
from .record import (FORMAT_VERSION, SNAPSHOT_EVERY, FrameSink,
                     JournalRecorder, header_record)
from .resume import ResumeReport, commit_summary, resume

__all__ = [
    "COMPLETED_BEFORE_KILL",
    "DECISION",
    "END",
    "EVENT",
    "FORMAT_VERSION",
    "FrameSink",
    "HEADER",
    "JournalDocument",
    "JournalRecorder",
    "JournalWriter",
    "Kill9Report",
    "MAGIC",
    "ResumeReport",
    "SNAPSHOT",
    "SNAPSHOT_EVERY",
    "commit_summary",
    "encode_frame",
    "header_record",
    "kill9_resume",
    "read_journal",
    "record_run",
    "resume",
    "run_kill9_child",
    "tear_tail",
]
