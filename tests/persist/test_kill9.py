"""The kill -9 harness: genuine SIGKILL mid-run, resume, compare to oracle."""

import signal

import pytest

from repro.errors import PersistError
from repro.persist import kill9_resume, tear_tail
from repro.persist.journal import read_journal


@pytest.mark.parametrize("scenario,seed", [
    ("broadcast", 0), ("broadcast", 1), ("lock", 3),
])
def test_kill9_resume_reproduces_oracle(tmp_path, scenario, seed):
    report = kill9_resume(scenario, seed, tmp_path)
    assert report.ok
    assert report.child_signal == signal.SIGKILL
    assert report.committed_match
    # The kill landed mid-run: some frames were validated, some are the
    # continuation the crashed process never wrote.
    assert report.resume_report.journal_frames > 0
    assert report.resume_report.fresh > 0
    assert report.resume_report.committed == report.oracle_committed


def test_kill9_resume_survives_torn_final_frame(tmp_path):
    report = kill9_resume("broadcast", 0, tmp_path, torn=True)
    assert report.ok and report.torn
    assert report.committed_match


def test_kill9_rejects_kill_point_past_the_run(tmp_path):
    with pytest.raises(PersistError, match="kill point"):
        kill9_resume("broadcast", 0, tmp_path, kill_after=10_000)


def test_kill9_journal_is_durable_up_to_the_kill_point(tmp_path):
    report = kill9_resume("broadcast", 0, tmp_path, kill_after=10)
    child = tmp_path / "crash-broadcast-0.jrnl"
    doc = read_journal(child)
    # The child syncs before it SIGKILLs itself: every frame it wrote
    # survived.
    assert len(doc.frames) + 1 == 10              # header included
    assert report.ok


def test_tear_tail_preserves_preamble(tmp_path):
    path = tmp_path / "t.jrnl"
    path.write_bytes(b"SCRJRNL1" + b"x" * 4)
    assert tear_tail(path, drop_bytes=100) == 8
    assert path.read_bytes() == b"SCRJRNL1"
