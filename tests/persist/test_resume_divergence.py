"""What resume exists to catch: a journal whose frames the run disagrees with.

Each test records a real run, rewrites its journal through
``JournalWriter`` with one frame altered (or one frame added), and
resumes it.  The rewritten file is a well-formed journal, so nothing but
the frame comparison can notice the change: resume must name the altered
frame's index and attach the recorded and the replayed frame.
"""

import pytest

from repro.errors import ResumeMismatch
from repro.persist import record_run, resume
from repro.persist.journal import (DECISION, EVENT, SNAPSHOT, JournalWriter,
                                   read_journal)


def rewrite(source, target, frames):
    """Write ``frames`` after ``source``'s header into a new journal."""
    header = read_journal(source).header
    with JournalWriter(target) as writer:
        writer.append(header)
        for frame in frames:
            writer.append(frame)


def first_index(frames, kind, subkind=None):
    return next(index for index, frame in enumerate(frames)
                if frame["k"] == kind
                and (subkind is None or frame.get("kind") == subkind))


def alter_and_resume(tmp_path, scenario, seed, options, kind, subkind,
                     alter):
    """Record, alter the first frame of ``kind`` and resume it.

    Returns the error and the frame as recorded, which is what the
    replayed run produces at that index.
    """
    recorded = tmp_path / "recorded.jrnl"
    record_run(scenario, seed, recorded, options=options)
    frames = read_journal(recorded).frames
    index = first_index(frames, kind, subkind)
    original = frames[index]
    altered = alter(dict(original))
    assert altered != original
    changed = tmp_path / "changed.jrnl"
    rewrite(recorded, changed, frames[:index] + [altered]
            + frames[index + 1:])
    with pytest.raises(ResumeMismatch, match="diverged") as caught:
        resume(changed, expect_seed=seed, expect_scenario=scenario)
    error = caught.value
    assert error.frame_index == index
    assert error.expected == altered
    assert error.observed is not None
    return error, original


def test_altered_enroll_request_is_caught(tmp_path):
    def alter(frame):
        frame["p"] = repr("someone else")
        return frame
    alter_and_resume(tmp_path, "broadcast", 0, None, EVENT,
                     "enroll_request", alter)


def test_altered_comm_event_is_caught(tmp_path):
    def alter(frame):
        frame["d"] = dict(frame["d"], value="forged")
        return frame
    error, original = alter_and_resume(tmp_path, "broadcast", 0, None,
                                       EVENT, "comm", alter)
    assert error.observed == original


def test_altered_timer_decision_is_caught(tmp_path):
    def alter(frame):
        frame["t"] = frame["t"] + 1.0
        return frame
    error, original = alter_and_resume(tmp_path, "broadcast", 0, None,
                                       DECISION, "timer", alter)
    assert error.observed == original


def test_altered_snapshot_digest_is_caught(tmp_path):
    # At n=40 the run commits 80 times and crosses the 64-commit snapshot
    # cadence once; no catalogue entry does at its default size.
    def alter(frame):
        frame["digest"] = dict(frame["digest"], steps=-1)
        return frame
    error, original = alter_and_resume(tmp_path, "demo-broadcast", 0,
                                       {"n": 40}, SNAPSHOT, None, alter)
    assert error.observed == original


def test_extra_trailing_frame_is_caught(tmp_path):
    recorded = tmp_path / "recorded.jrnl"
    record_run("broadcast", 0, recorded)
    frames = read_journal(recorded).frames
    extra = {"k": EVENT, "kind": "comm", "seq": 10_000, "t": 99.0,
             "p": repr("ghost"), "d": {}}
    longer = tmp_path / "longer.jrnl"
    rewrite(recorded, longer, frames + [extra])
    with pytest.raises(ResumeMismatch, match="replayed run ended after") \
            as caught:
        resume(longer, expect_seed=0, expect_scenario="broadcast")
    assert caught.value.frame_index == len(frames)
    assert caught.value.expected == extra
