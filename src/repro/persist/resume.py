"""Deterministic resume: replay a journal through a fresh scheduler.

The kernel is a pure function of ``(scenario, seed, options)`` — every
draw of nondeterminism goes through the seeded RNG or the virtual-time
timer wheel, and the journal records each one.  Resume therefore does not
patch scheduler state back in from snapshots; it *re-runs* the recorded
scenario from its header recipe with a :class:`ReplayValidator` attached,
which checks every freshly produced frame against the journal, frame by
frame.  Three things can happen per frame:

* it matches the recorded frame — the replay is still on the recorded
  trajectory (this covers events, RNG/timer decisions, and the periodic
  state-digest snapshots, so divergence is caught within one snapshot
  interval at worst, usually at the exact decision);
* it differs — :class:`~repro.errors.ResumeMismatch` pinpoints the first
  divergent frame with both sides attached;
* the journal is exhausted — the run has passed the crash point and the
  remaining frames are *fresh*: the continuation the crashed run never
  got to write.

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
from .record import FORMAT_VERSION, FrameSink


def commit_summary(frames: list[dict[str, Any]]) -> list[tuple[int, str]]:
    """``(trace seq, process)`` for every committed rendezvous, in order.

    This is the sequence the acceptance property quantifies over: a
    resumed run must produce the same committed-rendezvous sequence,
    trace-id-verified, as an uninterrupted run of the same seed.
    """
    return [(frame["seq"], frame["p"]) for frame in frames
            if frame.get("k") == journal_format.EVENT
            and frame.get("kind") == "comm"]


class ReplayValidator(FrameSink):
    """Frame sink that checks a fresh run against recorded frames.

    Attach to the replaying scheduler exactly where the recorder was
    attached.  ``position`` counts validated frames; once the journal is
    exhausted, further frames are counted as ``fresh`` (the continuation)
    and collected in ``frames`` alongside the validated ones, so the
    caller sees the full frame stream of the resumed run.
    """

    def __init__(self, expected: list[dict[str, Any]], *,
                 snapshot_every: int):
        super().__init__(snapshot_every=snapshot_every)
        self.expected = expected
        self.position = 0
        self.fresh = 0
        self.frames: list[dict[str, Any]] = []
        self.finished = False

    def _note_frame(self, record: dict[str, Any]) -> None:
        self.frames.append(record)
        if self.position < len(self.expected):
            want = self.expected[self.position]
            if record != want:
                raise ResumeMismatch(
                    "replayed run diverged from the journal",
                    frame_index=self.position, expected=want,
                    observed=record)
            self.position += 1
        else:
            self.fresh += 1

    def finish(self, status: str) -> None:
        self._note_frame(self._end_record(status))
        self.finished = True

    def barrier(self) -> None:
        """Durability is the recorder's concern; validation needs none."""


@dataclasses.dataclass(slots=True)
class ResumeReport:
    """What a resume established, and what the resumed run produced."""

    path: str
    scenario: str
    seed: int
    options: dict[str, Any]
    torn: bool                   # journal ended in a torn (dropped) frame
    complete: bool               # journal held an intact ``end`` frame
    journal_frames: int          # intact recorded frames (header excluded)
    replayed: int                # frames validated against the journal
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
            f"  journal       {self.journal_frames} frame(s), {tail}",
            f"  validated     {self.replayed} frame(s) replayed identically",
            f"  continuation  {self.fresh} fresh frame(s) past the journal",
            f"  rendezvous    {len(self.committed)} committed",
            f"  outcome       {self.outcome}",
        ]


def _check_header(doc: JournalDocument, *, expect_seed: int | None,
                  expect_scenario: str | None) -> tuple[int, str,
                                                        dict[str, Any], int]:
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
    snapshot_every = header.get("snapshot_every")
    if not isinstance(snapshot_every, int) or snapshot_every < 1:
        raise ResumeMismatch("journal header lacks the snapshot cadence")
    return seed, scenario, options, snapshot_every


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
    seed, scenario, options, snapshot_every = _check_header(
        doc, expect_seed=expect_seed, expect_scenario=expect_scenario)
    entry = lookup(scenario, error=ResumeMismatch)
    validator = ReplayValidator(doc.frames, snapshot_every=snapshot_every)
    run = entry.run(seed, journal=validator, **options)
    if not validator.finished:
        raise PersistError(
            f"scenario {scenario!r} never called journal.finish(); its "
            f"runner does not support journaling")
    if validator.position < len(validator.expected):
        raise ResumeMismatch(
            f"replayed run ended after {validator.position} frame(s) but "
            f"the journal holds {len(validator.expected)}",
            frame_index=validator.position,
            expected=validator.expected[validator.position])
    return ResumeReport(
        path=os.fspath(path), scenario=scenario, seed=seed, options=options,
        torn=doc.torn, complete=doc.complete,
        journal_frames=len(doc.frames), replayed=validator.position,
        fresh=validator.fresh,
        outcome=run.outcome,
        committed=commit_summary(validator.frames), run=run)
