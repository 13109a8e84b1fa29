"""Record → resume round-trips: validation, mismatches, snapshots."""

import pytest

from repro.errors import PersistError, ResumeMismatch
from repro.obs import RuntimeMetrics
from repro.persist import JournalRecorder, record_run, resume
from repro.persist.journal import (DECISION, EVENT, HEADER, SNAPSHOT,
                                   JournalWriter, read_journal)
from repro.persist.record import SNAPSHOT_EVERY
from repro.persist.resume import commit_summary
from repro.runtime import Scheduler
from repro.scenarios import lookup

from .test_resume_divergence import alter_and_resume


@pytest.mark.parametrize("scenario,seed", [
    ("broadcast", 0), ("broadcast", 7), ("lock", 3), ("recover", 1),
])
def test_roundtrip_validates_every_frame(tmp_path, scenario, seed):
    path = tmp_path / f"{scenario}-{seed}.jrnl"
    record_run(scenario, seed, path)
    report = resume(path, expect_seed=seed, expect_scenario=scenario)
    # A complete journal replays end to end: nothing fresh, no tear.
    assert report.complete and not report.torn
    assert report.fresh == 0
    assert report.committed == commit_summary(read_journal(path).frames)


def test_journal_covers_every_nondeterminism_source(tmp_path):
    path = tmp_path / "b.jrnl"
    record_run("broadcast", 0, path)
    doc = read_journal(path)
    kinds = {frame["k"] for frame in doc.frames}
    assert EVENT in kinds
    assert DECISION in kinds or SNAPSHOT in kinds
    assert doc.complete


def test_snapshot_frames_follow_commit_cadence(tmp_path):
    path = tmp_path / "b.jrnl"
    record_run("demo-broadcast", 0, path, options={"n": 40})
    doc = read_journal(path)
    assert doc.header["snapshot_every"] == SNAPSHOT_EVERY
    snapshots = doc.of_kind(SNAPSHOT)
    assert snapshots, "80 commits cross the cadence"
    assert all(snap["commits"] % SNAPSHOT_EVERY == 0 for snap in snapshots)
    digests = [snap["digest"] for snap in snapshots]
    assert all({"now", "steps", "rng"} <= set(d) for d in digests)
    report = resume(path, expect_seed=0, expect_scenario="demo-broadcast")
    assert report.complete and report.fresh == 0
    assert report.journal_frames == len(doc.frames)


def test_divergence_names_the_replayed_frame_at_its_index(tmp_path):
    # An enroll_request is traced inside the enrolling process's step.
    # Resume compares after the run, so the process runs on unharmed and
    # the error carries the frame the replay produced at that index.
    def alter(frame):
        frame["p"] = repr("someone else")
        return frame
    error, original = alter_and_resume(tmp_path, "broadcast", 0, None,
                                       EVENT, "enroll_request", alter)
    assert error.observed == original


def test_metrics_attached_over_a_journal_keep_its_frames(tmp_path):
    # Metrics attached after the recorder observe beside it: the journal
    # keeps every decision frame and resumes, and the metrics see every
    # comm.
    path = tmp_path / "b.jrnl"
    recorder = JournalRecorder(path, seed=3, scenario="broadcast",
                               options={"n": 4})
    metrics = RuntimeMetrics()

    class Hook:
        def attach(self, scheduler):
            recorder.attach(scheduler)
            metrics.attach(scheduler, scheduler.transport)

        def finish(self, outcome):
            recorder.finish(outcome)

        def barrier(self):
            recorder.barrier()

    lookup("broadcast").run(3, journal=Hook(), n=4)
    report = resume(path, expect_seed=3, expect_scenario="broadcast")
    assert report.complete and report.fresh == 0
    frames = read_journal(path).frames
    assert any(frame["k"] == DECISION and frame["kind"] == "timer"
               for frame in frames)
    comms = sum(1 for frame in frames
                if frame["k"] == EVENT and frame["kind"] == "comm")
    assert comms > 0
    assert metrics.registry.counter("comms_total").value == comms


def test_resume_rejects_wrong_seed(tmp_path):
    path = tmp_path / "b.jrnl"
    record_run("broadcast", 0, path)
    with pytest.raises(ResumeMismatch, match="seed"):
        resume(path, expect_seed=999)


def test_resume_rejects_wrong_scenario(tmp_path):
    path = tmp_path / "b.jrnl"
    record_run("broadcast", 0, path)
    with pytest.raises(ResumeMismatch, match="scenario"):
        resume(path, expect_scenario="lock")


def test_resume_rejects_unknown_scenario(tmp_path):
    path = tmp_path / "b.jrnl"
    recorder = JournalRecorder(path, seed=0, scenario="not-a-scenario")
    recorder.finish("ok")
    with pytest.raises(ResumeMismatch, match="unknown scenario"):
        resume(path)


def test_record_run_rejects_unknown_scenario(tmp_path):
    with pytest.raises(PersistError, match="unknown scenario"):
        record_run("not-a-scenario", 0, tmp_path / "x.jrnl")


def test_torn_tail_resumes_and_continues(tmp_path):
    path = tmp_path / "b.jrnl"
    record_run("broadcast", 0, path)
    intact = len(read_journal(path).frames)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(size - 7)                 # tear the end frame
    report = resume(path, expect_seed=0)
    assert report.torn and not report.complete
    assert report.journal_frames < intact
    # The replay runs past the tear: the dropped frames come back fresh.
    assert report.fresh > 0


def test_close_without_finish_reads_as_crashed_run(tmp_path):
    path = tmp_path / "c.jrnl"
    recorder = JournalRecorder(path, seed=0, scenario="broadcast")
    recorder.close()
    doc = read_journal(path)
    assert not doc.complete and not doc.torn


def test_recorder_rejects_double_attach(tmp_path):
    recorder = JournalRecorder(tmp_path / "j.jrnl", seed=0, scenario="x")
    recorder.attach(Scheduler(seed=0))
    with pytest.raises(PersistError, match="already attached"):
        recorder.attach(Scheduler(seed=0))
    recorder.close()


def test_header_without_cadence_is_rejected(tmp_path):
    from repro.persist.journal import HEADER, JournalWriter
    path = tmp_path / "old.jrnl"
    with JournalWriter(path) as writer:
        writer.append({"k": HEADER, "version": 1, "seed": 0,
                       "scenario": "broadcast", "options": {}})
    with pytest.raises(ResumeMismatch, match="cadence"):
        resume(path)


def test_header_with_another_cadence_is_rejected(tmp_path):
    # Snapshot frames sample every SNAPSHOT_EVERY-th commit; a journal
    # sampled at another cadence could never replay frame for frame.
    path = tmp_path / "five.jrnl"
    with JournalWriter(path) as writer:
        writer.append({"k": HEADER, "version": 1, "seed": 0,
                       "scenario": "broadcast", "options": {},
                       "snapshot_every": 5})
    with pytest.raises(ResumeMismatch, match="cadence 5"):
        resume(path)


def test_resume_is_idempotent(tmp_path):
    # Resuming never mutates the journal: a second resume sees the same
    # file and produces the same report.
    path = tmp_path / "b.jrnl"
    record_run("broadcast", 2, path)
    before = path.read_bytes()
    first = resume(path)
    second = resume(path)
    assert path.read_bytes() == before
    assert first.committed == second.committed
    assert first.journal_frames == second.journal_frames
