"""Deterministic resume: replay a journal through a fresh scheduler.

The kernel is a pure function of ``(scenario, seed, options)`` — every
draw of nondeterminism goes through the seeded RNG or the virtual-time
timer wheel, and the journal records each one.  Resume therefore does not
patch scheduler state back in from snapshots; it *re-runs* the recorded
scenario from its header recipe with a
:class:`~repro.persist.record.FrameSink` attached — the same capture path
the recorder uses — and, once the run is over, compares the captured
frames with the journal's, frame by frame:

* every journal frame must equal the replayed frame at its index (events,
  RNG/timer decisions, and the periodic state-digest snapshots), or
  :class:`~repro.errors.ResumeMismatch` names the first divergent frame
  with both sides attached;
* the replayed run must reach the journal's last frame, or resume
  reports where it ended;
* replayed frames past the journal's end are *fresh*: the continuation
  the crashed run never got to write.

A run that raises is compared too, before its error propagates, so a
divergence it reached first is still what resume reports.

A torn tail (see :mod:`repro.persist.journal`) just shortens the
validated prefix; the replay still runs the scenario to completion, which
is exactly the crash-recovery story: kill -9 mid-run, resume, finish with
the same committed-rendezvous sequence.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any

from ..errors import PersistError, ResumeMismatch
from ..scenarios import Run, lookup
from . import journal as journal_format
from .journal import JournalDocument, read_journal
from .record import FORMAT_VERSION, SNAPSHOT_EVERY, FrameSink


def commit_summary(frames: list[dict[str, Any]]) -> list[tuple[int, str]]:
    """``(trace seq, process)`` for every committed rendezvous, in order.

    This is the sequence the acceptance property quantifies over: a
    resumed run must produce the same committed-rendezvous sequence,
    trace-id-verified, as an uninterrupted run of the same seed.
    """
    return [(frame["seq"], frame["p"]) for frame in frames
            if frame.get("k") == journal_format.EVENT
            and frame.get("kind") == "comm"]


def _check_frames(recorded: list[dict[str, Any]],
                  replayed: list[dict[str, Any]]) -> None:
    """Raise at the first index where the two frame lists disagree."""
    for index, (want, got) in enumerate(zip(recorded, replayed)):
        if want != got:
            raise ResumeMismatch("replayed run diverged from the journal",
                                 frame_index=index, expected=want,
                                 observed=got)


@dataclasses.dataclass(slots=True)
class ResumeReport:
    """What a resume established, and what the resumed run produced."""

    path: str
    scenario: str
    seed: int
    options: dict[str, Any]
    torn: bool                   # journal ended in a torn (dropped) frame
    complete: bool               # journal held an intact ``end`` frame
    journal_frames: int          # intact frames, all replayed identically
    fresh: int                   # frames produced past the journal's end
    outcome: str                 # resumed run's outcome
    committed: list[tuple[int, str]]  # full committed-rendezvous sequence
    run: Run                     # what the resumed run produced

    def lines(self) -> list[str]:
        """Human-readable summary for the CLI."""
        tail = "torn tail dropped" if self.torn else (
            "complete" if self.complete else "no end frame (crashed run)")
        return [
            f"resume: {self.scenario} seed {self.seed} from {self.path}",
            f"  journal       {self.journal_frames} frame(s) replayed "
            f"identically, {tail}",
            f"  continuation  {self.fresh} fresh frame(s) past the journal",
            f"  rendezvous    {len(self.committed)} committed",
            f"  outcome       {self.outcome}",
        ]


def _check_header(doc: JournalDocument, *, expect_seed: int | None,
                  expect_scenario: str | None) -> tuple[int, str,
                                                        dict[str, Any]]:
    header = doc.header
    if header.get("version") != FORMAT_VERSION:
        raise ResumeMismatch(
            f"journal format version {header.get('version')!r} does not "
            f"match this library's version {FORMAT_VERSION}")
    seed = header.get("seed")
    scenario = header.get("scenario")
    if not isinstance(seed, int) or not isinstance(scenario, str):
        raise ResumeMismatch("journal header lacks a seed/scenario recipe")
    if expect_seed is not None and expect_seed != seed:
        raise ResumeMismatch(f"journal was recorded at seed {seed}, "
                             f"resume requested seed {expect_seed}")
    if expect_scenario is not None and expect_scenario != scenario:
        raise ResumeMismatch(
            f"journal records scenario {scenario!r}, resume requested "
            f"{expect_scenario!r}")
    options = header.get("options") or {}
    if not isinstance(options, dict):
        raise ResumeMismatch("journal header options are not a mapping")
    cadence = header.get("snapshot_every")
    if cadence != SNAPSHOT_EVERY:
        raise ResumeMismatch(
            f"journal header's snapshot cadence {cadence!r} is not this "
            f"library's {SNAPSHOT_EVERY}")
    return seed, scenario, options


def resume(path: str | os.PathLike, *, expect_seed: int | None = None,
           expect_scenario: str | None = None) -> ResumeReport:
    """Resume the run recorded at ``path``; validate, then continue.

    Raises :class:`~repro.errors.JournalError` for a structurally broken
    file and :class:`~repro.errors.ResumeMismatch` when the header recipe
    conflicts with expectations or the replay diverges from any recorded
    frame.  A torn tail is tolerated (the crash case); an intact journal
    of a *completed* run simply validates end to end with zero fresh
    frames.
    """
    doc = read_journal(path)
    seed, scenario, options = _check_header(
        doc, expect_seed=expect_seed, expect_scenario=expect_scenario)
    entry = lookup(scenario, error=ResumeMismatch)
    sink = FrameSink()
    try:
        run = entry.run(seed, journal=sink, **options)
    finally:
        # Also when the run raised: a divergence it reached first is
        # what resume reports, in place of the run's own error.
        sink.barrier()
        _check_frames(doc.frames, sink.frames)
    if not sink.frames or sink.frames[-1]["k"] != journal_format.END:
        raise PersistError(
            f"scenario {scenario!r} never called journal.finish(); its "
            f"runner does not support journaling")
    recorded, replayed = len(doc.frames), len(sink.frames)
    if replayed < recorded:
        raise ResumeMismatch(
            f"replayed run ended after {replayed} frame(s) but the journal "
            f"holds {recorded}",
            frame_index=replayed, expected=doc.frames[replayed])
    return ResumeReport(
        path=os.fspath(path), scenario=scenario, seed=seed, options=options,
        torn=doc.torn, complete=doc.complete,
        journal_frames=recorded, fresh=replayed - recorded,
        outcome=run.outcome,
        committed=commit_summary(sink.frames), run=run)
