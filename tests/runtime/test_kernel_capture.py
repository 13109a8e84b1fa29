"""Kernel facilities behind the journal: commit cadence, observer
attachment, and the cheap state capture / deferred digest split."""

import pytest

from repro.errors import RuntimeKernelError
from repro.runtime import Choice, Receive, Scheduler, Send, Sink


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
# Observers
# ---------------------------------------------------------------------------

def never(*args):
    raise AssertionError("an instance attribute was called as a callback")


class CommitOnly(Sink):
    def __init__(self):
        self.commits = 0
        self.on_offer_posted = never              # not seen: not the class's

    def on_commit(self, time, sender, receiver):
        self.commits += 1


class OfferOnly(Sink):
    def __init__(self):
        self.offers = 0

    def on_offer_posted(self, time, process):
        self.offers += 1


def hook_lists(scheduler):
    return {"offer": scheduler._offer_hooks,
            "commit": scheduler._commit_hooks,
            "decision": scheduler._decision_hooks,
            "phase": scheduler._phase_hooks,
            "settle": scheduler._settle_hooks}


def test_observe_files_only_what_the_class_defines():
    scheduler = Scheduler(seed=0)
    assert not any(hook_lists(scheduler).values())
    scheduler.observe(Sink())                     # defines nothing
    assert not any(hook_lists(scheduler).values())
    commit_only = CommitOnly()
    scheduler.observe(commit_only)
    offer_only = OfferOnly()
    scheduler.observe(offer_only)
    assert hook_lists(scheduler) == {
        "offer": [offer_only.on_offer_posted],
        "commit": [commit_only.on_commit],
        "decision": [], "phase": [], "settle": []}


def test_overridden_callbacks_still_dispatch():
    scheduler = Scheduler(seed=0)
    commit_sink = CommitOnly()
    scheduler.observe(commit_sink)
    offer_sink = OfferOnly()
    scheduler.observe(offer_sink)
    run_pairs(scheduler, n=6)
    assert commit_sink.commits == 6
    assert offer_sink.offers > 0


class Log(Sink):
    """Writes every callback it hears into a shared log, under its tag."""

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def on_offer_posted(self, time, process):
        self.log.append(("offer", process, self.tag))

    def on_commit(self, time, sender, receiver):
        self.log.append(("commit", sender, self.tag))

    def on_decision(self, time, kind, subject, payload):
        self.log.append(("decision", subject, self.tag))


def test_observers_hear_every_callback_in_attach_order():
    scheduler = Scheduler(seed=0)
    log = []
    scheduler.observe(Log("first", log))
    scheduler.observe(Log("second", log))

    def chooser():
        yield Choice(("a", "b"))

    scheduler.spawn("chooser", chooser())
    run_pairs(scheduler, n=3)
    # Each callback reaches the first observer, then the second.
    assert log and len(log) % 2 == 0
    for first, second in zip(log[0::2], log[1::2]):
        assert (first[2], second[2]) == ("first", "second")
        assert first[:2] == second[:2]
    assert {kind for kind, *_ in log} == {"offer", "commit", "decision"}
    assert sum(kind == "commit" for kind, *_ in log) == 2 * 3


@pytest.mark.parametrize("observer", [None, CommitOnly],
                         ids=["none", "commit-only"])
def test_scheduler_without_phase_observers_never_reads_the_clock(observer):
    scheduler = Scheduler(seed=0)
    reads = []
    scheduler.prof_clock = lambda: reads.append(None) or 0
    if observer is not None:
        scheduler.observe(observer())
    run_pairs(scheduler, n=4)
    assert reads == []


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
