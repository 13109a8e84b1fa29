"""The repost/withdraw cycle: re-post caching must be invisible.

The indexed board treats withdraw as *suspension* and re-posts of an
equivalent offer group as cache hits that resurrect the suspended pairs
wholesale (see ``board_index.py``'s module docstring).  Correctness
claim: none of that machinery is observable — a run's committed
rendezvous sequence is byte-identical to the full-scan oracle's.

Two layers of evidence here:

* Scheduler-level differential traces over the three shapes that stress
  the cache hardest — fan-in select re-arming (pure hit traffic), timed
  retry churn (mass withdrawals, hits and misses interleaved), and a
  migrating role alias (claim/release invalidation while suspended) —
  at sizes up to N=200.
* Board-level unit tests pinning each invalidation rule individually:
  hit, shape-change miss, new-send miss, claim miss, release
  force-invalidation, producer-death survival, and the entry's death
  with its process.
"""

import pytest

from repro.runtime import (AddAlias, Delay, DropAlias, IndexedBoard,
                           OracleBoard, Receive, Scheduler, Select, Send,
                           TIMED_OUT_BRANCH, format_trace)
from repro.runtime.board import make_group
from repro.runtime.process import Process


# ---------------------------------------------------------------------------
# Differential traces: the cache-stressing shapes
# ---------------------------------------------------------------------------

def build_fanin(scheduler, n):
    """N producers race into one re-arming select: pure cache-hit traffic.

    Every commit withdraws the hub and the hub immediately re-posts an
    equivalent select, so all but the first post should hit the cache and
    resume the surviving producer pairs untouched.
    """
    def producer(i):
        yield Send("hub", i, tag="a" if i % 2 else "b")

    def hub():
        for _ in range(n):
            yield Select((Receive(tag="a"), Receive(tag="b")))

    scheduler.spawn("hub", hub())
    for i in range(n):
        scheduler.spawn(("prod", i), producer(i))


def build_churn(scheduler, n):
    """Timed-receive retry loops: mass withdrawals, hits and misses mixed.

    Every expiry withdraws the receiver and every retry re-posts an
    equivalent group — a hit while nothing changed, a miss right after a
    send arrived while the receiver was suspended (the send invalidates
    the receiver's cache entry).  Senders arrive in staggered waves so both
    cases occur throughout the run.
    """
    def receiver(i):
        got = 0
        while got < 2:
            result = yield Select((Receive(None),), timeout=0.7)
            if result.index != TIMED_OUT_BRANCH:
                got += 1

    def sender(i):
        yield Delay(1.0 + (i % 3))
        yield Send(("recv", i), i)
        yield Delay(0.5)
        yield Send(("recv", (i + 1) % n), i)

    for i in range(n):
        scheduler.spawn(("recv", i), receiver(i))
        scheduler.spawn(("send", i), sender(i))


def build_reclaim(scheduler, n):
    """A role address migrating through owners while senders keep using it.

    Sends posted before a claim only match after it (claim invalidation
    must reroute them), each vacation strands the rest until the next
    owner arrives (release invalidation must kill the routed pairs), and
    the owners' timed retry loops suspend and re-post around both events.
    """
    k = max(2, min(8, n // 4))
    per, extra = divmod(n, k)

    def sender(i):
        yield Delay(0.1 * (i % 5))
        yield Send("slot", i)

    def owner(j, quota):
        yield Delay(2.0 * j)
        yield AddAlias("slot")
        got = 0
        while got < quota:
            result = yield Select((Receive(None),), timeout=0.3)
            if result.index != TIMED_OUT_BRANCH:
                got += 1
        yield DropAlias("slot")

    for i in range(n):
        scheduler.spawn(("send", i), sender(i))
    for j in range(k):
        quota = per + (extra if j == k - 1 else 0)
        scheduler.spawn(("own", j), owner(j, quota))


SHAPES = {"fanin": build_fanin, "churn": build_churn,
          "reclaim": build_reclaim}

CASES = [(shape, n, seed)
         for shape in sorted(SHAPES)
         for n in (6, 30) for seed in (0, 1)]
CASES += [(shape, 200, 0) for shape in sorted(SHAPES)]


def run_shape(shape, n, seed, board):
    scheduler = Scheduler(seed=seed, board=board, max_steps=1_000_000)
    SHAPES[shape](scheduler, n)
    scheduler.run()
    return format_trace(scheduler.tracer), scheduler


@pytest.mark.parametrize("shape,n,seed", CASES)
def test_repost_shapes_match_oracle(shape, n, seed):
    oracle_trace, _ = run_shape(shape, n, seed, OracleBoard())
    indexed_trace, _ = run_shape(shape, n, seed, IndexedBoard())
    assert indexed_trace == oracle_trace, (shape, n, seed)


def test_corpus_exercises_both_cache_paths():
    """The differential corpus must drive hits AND misses, or it proves
    nothing about the cache: a fan-in run that never hit would silently
    test only the from-scratch path."""
    _, fanin = run_shape("fanin", 40, 0, IndexedBoard())
    info = fanin._board.introspect()
    assert info["cache_hits"] > 0
    assert info["resumed_pairs"] > 0
    _, churn = run_shape("churn", 30, 0, IndexedBoard())
    info = churn._board.introspect()
    assert info["cache_hits"] > 0
    assert info["cache_misses"] > 0
    # Reclaim's invalidation events land between suspension windows, so
    # it drives hits under alias migration (the dangerous case) rather
    # than misses — those are churn's and fan-in's department.
    _, reclaim = run_shape("reclaim", 30, 0, IndexedBoard())
    info = reclaim._board.introspect()
    assert info["cache_hits"] > 0
    assert info["resumed_pairs"] > 0


# ---------------------------------------------------------------------------
# Unit tests: each invalidation rule, pinned individually
# ---------------------------------------------------------------------------

def proc(name):
    def body():
        yield  # pragma: no cover - never driven in these tests
    return Process(name, body())


class Fixture:
    """An owner map plus twin boards kept in lockstep for comparison."""

    def __init__(self):
        self.owner = {}
        self.indexed = IndexedBoard()
        self.indexed.bind(self.owner)
        self.oracle = OracleBoard()

    def add_process(self, process):
        for alias in process.aliases:
            self.claim(alias, process)

    def claim(self, alias, process):
        self.owner[alias] = process
        process.aliases.add(alias)
        self.indexed.on_alias_claimed(alias, process)

    def release(self, alias, process):
        if self.owner.get(alias) is process:
            del self.owner[alias]
            self.indexed.on_alias_released(alias, process)
        process.aliases.discard(alias)

    def post(self, process, branches, plain=True):
        for board in (self.indexed, self.oracle):
            board.post(make_group(process, branches, plain=plain))

    def withdraw(self, name):
        self.indexed.withdraw(name)
        self.oracle.withdraw(name)

    def assert_agree(self):
        indexed = self.indexed.candidates(self.owner)
        oracle = self.oracle.candidates(self.owner)
        assert [(c.sender.name, c.receiver.name, c.send.index, c.recv.index)
                for c in indexed] == \
               [(c.sender.name, c.receiver.name, c.send.index, c.recv.index)
                for c in oracle]
        return indexed


def suspended_hub():
    """Two senders pairing with a wildcard receiver, receiver suspended."""
    fx = Fixture()
    s1, s2, r = proc("s1"), proc("s2"), proc("r")
    for p in (s1, s2, r):
        fx.add_process(p)
    fx.post(s1, [Send("r", 1)])
    fx.post(s2, [Send("r", 2)])
    fx.post(r, [Receive()])
    assert fx.indexed.candidate_count == 2
    fx.withdraw("r")
    return fx, s1, s2, r


def test_suspension_keeps_recv_pairs_resident_but_invisible():
    fx, *_ = suspended_hub()
    assert fx.indexed.index_size == 2          # pairs still resident...
    assert fx.indexed.candidate_count == 0     # ...but not matchable
    assert not fx.indexed.needs_settle
    assert fx.indexed.introspect()["suspended_pairs"] == 2
    assert fx.assert_agree() == []


def test_repost_hit_resumes_suspended_pairs():
    fx, s1, s2, r = suspended_hub()
    fx.post(r, [Receive()])                    # equivalent re-post
    info = fx.indexed.introspect()
    assert info["cache_hits"] == 1
    assert info["resumed_pairs"] == 2
    assert info["swept_pairs"] == 0
    assert fx.indexed.candidate_count == 2
    assert [c.sender.name for c in fx.assert_agree()] == ["s1", "s2"]


def test_repost_miss_on_shape_change_sweeps_stale_pairs():
    fx, s1, s2, r = suspended_hub()
    fx.post(r, [Receive("s1")])                # narrower: not equivalent
    info = fx.indexed.introspect()
    assert info["cache_misses"] == 1
    assert info["swept_pairs"] == 2            # both stale pairs torn down
    assert [c.sender.name for c in fx.assert_agree()] == ["s1"]


def test_send_arriving_while_suspended_invalidates_entry():
    fx = Fixture()
    s1, s2, r = proc("s1"), proc("s2"), proc("r")
    for p in (s1, s2, r):
        fx.add_process(p)
    fx.post(s1, [Send("r", 1)])
    fx.post(r, [Receive()])
    fx.withdraw("r")
    fx.post(s2, [Send("r", 2)])                # invalidates r's entry
    fx.post(r, [Receive()])                    # equivalent, but stale
    info = fx.indexed.introspect()
    assert info["cache_hits"] == 0
    assert info["cache_misses"] == 1
    assert [c.sender.name for c in fx.assert_agree()] == ["s1", "s2"]


def test_alias_claim_while_suspended_invalidates_entry():
    # The reclaim race: a send addressed to a role nobody owns, the
    # receiver suspends, then the receiver itself claims the role.  A
    # cache hit would miss the now-routable send; the global claim bump
    # forces the miss and fresh discovery finds it.
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    fx.post(s, [Send("the-role", 1)])          # unrouted: no owner yet
    fx.post(r, [Receive()])
    assert fx.assert_agree() == []
    fx.withdraw("r")
    fx.claim("the-role", r)
    fx.post(r, [Receive()])                    # equivalent, but stale
    info = fx.indexed.introspect()
    assert info["cache_hits"] == 0
    assert info["cache_misses"] == 1
    assert [c.sender.name for c in fx.assert_agree()] == ["s"]


def test_release_of_own_alias_force_invalidates_entry():
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    fx.claim("the-role", r)
    fx.post(s, [Send("the-role", 1)])
    fx.post(r, [Receive()])
    assert fx.indexed.candidate_count == 1
    fx.withdraw("r")
    fx.release("the-role", r)                  # routed pair dies too
    assert fx.indexed.index_size == 0
    fx.post(r, [Receive()])                    # equivalent, but stale
    assert fx.indexed.introspect()["cache_misses"] == 1
    assert fx.assert_agree() == []             # send is unrouted again


def test_producer_death_keeps_other_entries_valid():
    # The fan-in guarantee: one producer committing and dying (withdraw
    # plus alias release) must not invalidate the hub's cache entry —
    # only the dead producer's pair goes, the rest resume on the hit.
    fx, s1, s2, r = suspended_hub()
    fx.withdraw("s1")
    fx.release("s1", s1)
    assert fx.indexed.index_size == 1          # s2's pair still resident
    fx.post(r, [Receive()])                    # equivalent re-post
    info = fx.indexed.introspect()
    assert info["cache_hits"] == 1
    assert info["resumed_pairs"] == 1
    assert [c.sender.name for c in fx.assert_agree()] == ["s2"]


def test_finished_run_leaves_no_suspended_group():
    # Every process of the star broadcast withdraws a group at its last
    # commit; each entry goes when its process retires.
    from repro.obs import run_scenario
    run = run_scenario("demo-broadcast", seed=1, n=300)
    assert len(run.scheduler.processes) == 301
    assert all(p.finished for p in run.scheduler.processes.values())
    info = run.scheduler.board.introspect()
    assert info["suspended_groups"] == 0
    assert info["suspended_pairs"] == info["pairs"] == 0


def test_oracle_board_reports_no_cache():
    board = OracleBoard()
    assert board.cache_hits == 0
    assert board.swept_pairs == 0
