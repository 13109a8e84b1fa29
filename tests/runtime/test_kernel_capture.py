"""Kernel facilities behind the journal: commit cadence, sink capability
flags, and the cheap state capture / deferred digest split."""

import pytest

from repro.errors import RuntimeKernelError
from repro.runtime import NULL_SINK, Receive, Scheduler, Send, Sink


def ping(n):
    for _ in range(n):
        yield Send("pong", "x")


def pong(n):
    for _ in range(n):
        yield Receive("ping")


def run_pairs(scheduler, n=10):
    scheduler.spawn("ping", ping(n))
    scheduler.spawn("pong", pong(n))
    scheduler.run()


# ---------------------------------------------------------------------------
# Commit cadence
# ---------------------------------------------------------------------------

def test_cadence_hook_fires_every_nth_commit():
    scheduler = Scheduler(seed=0)
    seen = []
    scheduler.set_commit_cadence(3, lambda: seen.append(
        scheduler.commit_count))
    run_pairs(scheduler, n=10)
    assert scheduler.commit_count == 10
    assert seen == [3, 6, 9]


def test_cadence_of_one_fires_every_commit():
    scheduler = Scheduler(seed=0)
    fired = []
    scheduler.set_commit_cadence(1, lambda: fired.append(None))
    run_pairs(scheduler, n=4)
    assert len(fired) == 4


def test_cadence_validation_and_single_slot():
    scheduler = Scheduler(seed=0)
    with pytest.raises(RuntimeKernelError, match="cadence"):
        scheduler.set_commit_cadence(0, None)
    scheduler.set_commit_cadence(2, lambda: None)
    with pytest.raises(RuntimeKernelError, match="already installed"):
        scheduler.set_commit_cadence(4, lambda: None)
    # Clearing frees the slot for a new owner.
    scheduler.set_commit_cadence(1, None)
    scheduler.set_commit_cadence(4, lambda: None)


def test_cadence_rearming_same_hook_adjusts_interval():
    scheduler = Scheduler(seed=0)
    hook_calls = []

    def hook():
        hook_calls.append(scheduler.commit_count)

    scheduler.set_commit_cadence(5, hook)
    scheduler.set_commit_cadence(2, hook)         # same hook: allowed
    run_pairs(scheduler, n=4)
    assert hook_calls == [2, 4]


# ---------------------------------------------------------------------------
# Sink capability flags
# ---------------------------------------------------------------------------

class CommitOnly(Sink):
    def __init__(self):
        self.commits = 0

    def on_commit(self, time, sender, receiver, board, waiters):
        self.commits += 1


class OfferOnly(Sink):
    def __init__(self):
        self.offers = 0

    def on_offer_posted(self, time, process):
        self.offers += 1


def test_sink_flags_track_what_the_class_overrides():
    scheduler = Scheduler(seed=0)
    assert not scheduler._sink_commit and not scheduler._sink_offer
    scheduler.sink = CommitOnly()
    assert scheduler._sink_commit
    assert not (scheduler._sink_offer or scheduler._sink_index
                or scheduler._sink_decision)
    scheduler.sink = OfferOnly()
    assert scheduler._sink_offer and not scheduler._sink_commit
    scheduler.sink = None                         # back to the null sink
    assert scheduler.sink is NULL_SINK
    assert not scheduler._sink_offer


def test_overridden_callbacks_still_dispatch():
    scheduler = Scheduler(seed=0)
    commit_sink = CommitOnly()
    scheduler.sink = commit_sink
    run_pairs(scheduler, n=6)
    assert commit_sink.commits == 6

    scheduler = Scheduler(seed=0)
    offer_sink = OfferOnly()
    scheduler.sink = offer_sink
    run_pairs(scheduler, n=6)
    assert offer_sink.offers > 0


# ---------------------------------------------------------------------------
# State capture / deferred digest
# ---------------------------------------------------------------------------

def test_capture_then_digest_equals_state_digest():
    scheduler = Scheduler(seed=0)
    run_pairs(scheduler, n=3)
    assert Scheduler.digest_of(scheduler.state_capture()) \
        == scheduler.state_digest()


def test_capture_is_decoupled_from_live_state():
    # The whole point of the capture: taken on the hot path, rendered
    # later — mutations in between must not leak into the digest.
    scheduler = Scheduler(seed=0)
    scheduler.spawn("ping", ping(5))
    capture = scheduler.state_capture()
    digest_before = Scheduler.digest_of(capture)
    scheduler.spawn("pong", pong(5))
    scheduler.run()
    # RNG draws between capture and render must not leak in either.
    rng_before = scheduler.state_digest()["rng"]
    scheduler.rng.random()
    assert scheduler.state_digest()["rng"] != rng_before
    assert Scheduler.digest_of(capture) == digest_before
    assert scheduler.state_digest() != digest_before


def test_digest_tracks_rng_draws():
    a = Scheduler(seed=0)
    b = Scheduler(seed=0)
    assert a.state_digest() == b.state_digest()
    a.rng.random()
    assert a.state_digest()["rng"] != b.state_digest()["rng"]


def test_digest_is_seed_deterministic_after_identical_runs():
    digests = []
    for _ in range(2):
        scheduler = Scheduler(seed=7)
        run_pairs(scheduler, n=8)
        digests.append(scheduler.state_digest())
    assert digests[0] == digests[1]
    assert digests[0]["steps"] > 0
