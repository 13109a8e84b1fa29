"""Kill -9 crash/resume harness: prove durability against real SIGKILL.

In-process fault injection can simulate a crashed *process inside the
virtual world*; it cannot simulate the journal's own writer dying.  This
harness does it for real:

1. run the scenario once in-process, journaled, as the **oracle** — its
   journal holds the complete frame stream and committed-rendezvous
   sequence of an uninterrupted run;
2. spawn a **child** Python process (``python -m repro _kill9-child``)
   that runs the same scenario with a recorder armed to SIGKILL itself
   after N synced frames — a genuine, unhandled ``kill -9`` mid-run,
   leaving a journal that is durable exactly up to the kill point;
3. optionally tear the journal further (truncate/bit-flip its tail, the
   crash modes a filesystem can inflict);
4. :func:`~repro.persist.resume.resume` the child's journal and check the
   resumed run's committed-rendezvous sequence is identical, trace id by
   trace id, to the oracle's.

Everything is seed-deterministic, so the kill point defaults to halfway
through the oracle's frame count — guaranteed to interrupt, never to
under- or overshoot.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
from typing import Any

from ..errors import PersistError
from ..scenarios import lookup
from .journal import read_journal
from .record import SNAPSHOT_EVERY, JournalRecorder
from .resume import ResumeReport, commit_summary, resume

#: Child exit code meaning "the run finished before the kill point fired".
COMPLETED_BEFORE_KILL = 3


def record_run(scenario: str, seed: int, path: str | os.PathLike, *,
               options: dict[str, Any] | None = None,
               snapshot_every: int = SNAPSHOT_EVERY,
               fsync_every: int | None = None,
               registry: Any = None,
               kill_after_frames: int | None = None) -> Any:
    """Run ``scenario`` at ``seed`` with a journal recorder attached.

    Returns the scenario's own run object.  With ``kill_after_frames``
    set, this call does not return: the recorder SIGKILLs the process at
    the kill point (the ``_kill9-child`` CLI verb is a thin shell over
    exactly this).
    """
    entry = lookup(scenario, error=PersistError)
    recorder = JournalRecorder(
        path, seed=seed, scenario=scenario, options=options,
        snapshot_every=snapshot_every, fsync_every=fsync_every,
        registry=registry, kill_after_frames=kill_after_frames)
    try:
        return entry.run(seed, journal=recorder, **(options or {}))
    except BaseException:
        # Leave what was recorded on disk (no end frame: reads as a
        # crashed run), but never leak the file handle.
        recorder.close()
        raise


def run_kill9_child(scenario: str, seed: int, path: str, kill_after: int,
                    options: dict[str, Any] | None = None) -> int:
    """Child side of the harness; normally dies by SIGKILL before returning.

    Returns :data:`COMPLETED_BEFORE_KILL` when the scenario finished
    before ``kill_after`` frames were written — a harness configuration
    error the parent turns into a failure.
    """
    record_run(scenario, seed, path, options=options, fsync_every=1,
               kill_after_frames=kill_after)
    return COMPLETED_BEFORE_KILL


def _child_environment() -> dict[str, str]:
    """Child env whose ``PYTHONPATH`` resolves this exact ``repro`` tree."""
    # this file -> persist/ -> repro/ -> the importable source root
    src = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing \
        else src + os.pathsep + existing
    return env


def tear_tail(path: str | os.PathLike, drop_bytes: int = 7) -> int:
    """Truncate the journal mid-frame: the classic torn final write.

    Removes ``drop_bytes`` from the end of the file (clamped so the
    header always survives); returns the new size.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    new_size = max(size - max(1, drop_bytes), 8)
    with open(path, "r+b") as handle:
        handle.truncate(new_size)
    return new_size


@dataclasses.dataclass(slots=True)
class Kill9Report:
    """Everything the harness established for one scenario × seed."""

    scenario: str
    seed: int
    kill_after: int              # frames the child wrote before SIGKILL
    oracle_frames: int           # frames in the uninterrupted oracle run
    child_signal: int            # signal that killed the child (SIGKILL)
    torn: bool                   # child journal had a torn tail on read
    resume_report: ResumeReport
    oracle_committed: list[tuple[int, str]]
    committed_match: bool        # resumed sequence == oracle sequence

    @property
    def ok(self) -> bool:
        """True when the resumed run reproduced the oracle exactly."""
        return (self.committed_match
                and self.child_signal == signal.SIGKILL
                and self.resume_report.replayed > 0)

    def lines(self) -> list[str]:
        """Human-readable summary for the CLI."""
        report = self.resume_report
        return [
            f"kill9: {self.scenario} seed {self.seed}",
            f"  child         SIGKILL after {self.kill_after} synced "
            f"frame(s) (oracle run: {self.oracle_frames})",
            f"  journal       {report.journal_frames} intact frame(s)"
            + (", torn tail dropped" if self.torn else ""),
            f"  resume        {report.replayed} validated + "
            f"{report.fresh} fresh frame(s); outcome {report.outcome}",
            f"  rendezvous    {len(report.committed)}/"
            f"{len(self.oracle_committed)} committed, "
            f"{'identical to oracle' if self.committed_match else 'DIVERGED'}",
        ]


def kill9_resume(scenario: str, seed: int, work_dir: str | os.PathLike, *,
                 options: dict[str, Any] | None = None,
                 kill_after: int | None = None,
                 torn: bool = False,
                 timeout: float = 120.0) -> Kill9Report:
    """Full crash/resume cycle in ``work_dir``; see the module docstring.

    Raises :class:`PersistError` when the child does not die by SIGKILL
    (e.g. the run was too short for the kill point) — that is a harness
    bug, distinct from a durability failure, which shows up as
    ``committed_match=False`` in the report instead.
    """
    work_dir = os.fspath(work_dir)
    oracle_path = os.path.join(work_dir, f"oracle-{scenario}-{seed}.jrnl")
    child_path = os.path.join(work_dir, f"crash-{scenario}-{seed}.jrnl")

    record_run(scenario, seed, oracle_path, options=options)
    oracle_doc = read_journal(oracle_path)
    oracle_frames = len(oracle_doc.frames) + 1  # header included
    if kill_after is None:
        kill_after = max(2, oracle_frames // 2)
    if kill_after >= oracle_frames:
        raise PersistError(
            f"kill point {kill_after} is past the run's {oracle_frames} "
            f"frame(s); the child would complete instead of crashing")

    command = [sys.executable, "-m", "repro", "_kill9-child", scenario,
               "--seed", str(seed), "--journal", child_path,
               "--kill-after", str(kill_after)]
    if options:
        command += ["--options", json.dumps(options, sort_keys=True)]
    child = subprocess.run(command, env=_child_environment(),
                           capture_output=True, text=True, timeout=timeout)
    if child.returncode != -signal.SIGKILL:
        raise PersistError(
            f"kill9 child exited with {child.returncode} instead of dying "
            f"by SIGKILL; stderr: {child.stderr.strip()!r}")

    if torn:
        tear_tail(child_path)
    child_doc = read_journal(child_path)
    report = resume(child_path, expect_seed=seed, expect_scenario=scenario)
    oracle_committed = commit_summary(oracle_doc.frames)
    return Kill9Report(
        scenario=scenario, seed=seed, kill_after=kill_after,
        oracle_frames=oracle_frames, child_signal=-child.returncode,
        torn=child_doc.torn, resume_report=report,
        oracle_committed=oracle_committed,
        committed_match=report.committed == oracle_committed)
