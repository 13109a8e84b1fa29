"""Direct unit tests for the incremental indexed board."""

import pytest

from repro.runtime.board import make_group
from repro.runtime.board_index import IndexedBoard
from repro.runtime.board_oracle import OracleBoard
from repro.runtime.effects import Receive, Send
from repro.runtime.process import Process


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


def test_pair_created_on_post():
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    fx.post(s, [Send("r", 1)])
    assert fx.indexed.index_size == 0
    fx.post(r, [Receive()])
    assert fx.indexed.index_size == 1
    assert len(fx.assert_agree()) == 1


def test_withdraw_drops_pairs():
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    fx.post(s, [Send("r", 1)])
    fx.post(r, [Receive()])
    fx.withdraw("s")
    assert fx.indexed.index_size == 0
    assert fx.assert_agree() == []


def test_alias_claim_routes_pending_send():
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    fx.post(s, [Send("the-role", 1)])
    fx.post(r, [Receive()])
    assert fx.assert_agree() == []
    fx.claim("the-role", r)
    assert fx.indexed.index_size == 1
    assert len(fx.assert_agree()) == 1


def test_alias_claim_authorizes_named_receive():
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    fx.post(s, [Send("r", 1)])
    fx.post(r, [Receive("the-role")])  # wants the sender to own the-role
    assert fx.assert_agree() == []
    fx.claim("the-role", s)
    assert len(fx.assert_agree()) == 1


def test_alias_release_invalidates_routed_pairs():
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    fx.claim("the-role", r)
    fx.post(s, [Send("the-role", 1)])
    fx.post(r, [Receive()])
    assert fx.indexed.index_size == 1
    fx.release("the-role", r)
    assert fx.indexed.index_size == 0
    assert fx.assert_agree() == []


def test_release_keeps_pairs_routed_via_other_alias():
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    fx.claim("role-a", r)
    fx.post(s, [Send("r", 1), Send("role-a", 2)], plain=False)
    fx.post(r, [Receive()])
    assert fx.indexed.index_size == 2
    fx.release("role-a", r)
    assert fx.indexed.index_size == 1  # direct-name pair survives
    assert len(fx.assert_agree()) == 1


def test_candidate_order_matches_full_scan_across_reposts():
    fx = Fixture()
    a, b, c = proc("a"), proc("b"), proc("c")
    for p in (a, b, c):
        fx.add_process(p)
    fx.post(a, [Send("c", 1)])
    fx.post(b, [Send("c", 2)])
    fx.post(c, [Receive()])
    assert [x.sender.name for x in fx.assert_agree()] == ["a", "b"]
    # Re-posting moves a to the back of the matching order on both boards.
    fx.withdraw("a")
    fx.post(a, [Send("c", 3)])
    assert [x.sender.name for x in fx.assert_agree()] == ["b", "a"]


def test_tag_and_self_match_rules():
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    fx.post(s, [Send("r", 1, tag="x"), Send("s", 9)], plain=False)
    fx.post(r, [Receive(tag="y")])
    assert fx.assert_agree() == []  # tag mismatch + self-send never match


def test_candidates_for_unposted_group():
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    fx.post(r, [Receive()])
    group = make_group(s, [Send("r", 1)], plain=True)
    assert len(fx.indexed.candidates_for(group, fx.owner)) == 1
    assert len(fx.oracle.candidates_for(group, fx.owner)) == 1
    # ...and the probe must not have touched the live pair set.
    assert fx.indexed.index_size == 0


def test_dirty_events_counts_maintenance():
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    before = fx.indexed.dirty_events
    fx.post(s, [Send("r", 1)])
    fx.post(r, [Receive()])
    fx.withdraw("s")
    fx.withdraw("r")
    assert fx.indexed.dirty_events == before + 4


def test_bind_rejects_nonempty_board():
    fx = Fixture()
    s = proc("s")
    fx.add_process(s)
    fx.post(s, [Send("r", 1)])
    with pytest.raises(RuntimeError):
        fx.indexed.bind({})


def test_oracle_reports_no_index():
    board = OracleBoard()
    assert board.index_size == 0
    assert board.dirty_events == 0


@pytest.mark.parametrize("name", ["demo-broadcast", "demo-lock",
                                  "demo-election"])
def test_released_aliases_leave_no_buckets(name):
    """Every performance claims fresh role aliases and releases them when
    its roles end; their emptied buckets must not outlive them."""
    from repro.obs.scenarios import run_scenario

    info = run_scenario(name, seed=3, n=20).scheduler.board.introspect()
    assert (info["send_buckets"], info["recv_buckets"],
            info["alias_buckets"]) == (0, 0, 0)


def test_release_keeps_a_bucket_that_still_holds_offers():
    fx = Fixture()
    s, r = proc("s"), proc("r")
    fx.add_process(s), fx.add_process(r)
    fx.post(s, [Send("r", 1)])
    fx.post(r, [Receive()])
    assert fx.indexed.candidate_count == 1
    fx.release("r", r)
    assert fx.indexed.candidate_count == 0
    info = fx.indexed.introspect()
    assert (info["send_buckets"], info["alias_buckets"]) == (1, 0)
    fx.claim("r", r)
    assert fx.indexed.candidate_count == 1
    fx.assert_agree()
