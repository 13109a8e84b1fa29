"""Every way a process leaves the kernel, in one table.

A process ends by returning, by raising, by yielding something the
scheduler rejects, or by being killed — by another party or by itself,
in its own step; an interrupt throws into it without ending it.
Whichever way it goes, the run must leave nothing of it behind — no
board group, no waiter (polled or latch-parked), no armed timer, no
alias — and trace exactly one ``proc_done`` or ``proc_fail`` for it.
Kill listeners run once per kill and never otherwise.  Each case runs
on the indexed board and on the full-scan oracle.
"""

import pytest

from repro.errors import InvalidEffectError
from repro.net import NetworkTransport, Topology
from repro.runtime import (AddAlias, Delay, Latch, OracleBoard, Receive,
                           Scheduler, Select, Send, WaitUntil)
from repro.runtime.tracing import EventKind


class Cancelled(Exception):
    pass


def returns(scheduler):
    def body():
        yield AddAlias("extra")
        yield Delay(1.0)
        return "fine"

    scheduler.spawn("p", body())


def raises(scheduler):
    def body():
        yield AddAlias("extra")
        yield Delay(1.0)
        raise ValueError("boom")

    scheduler.spawn("p", body())


def yields_a_non_effect(scheduler):
    def body():
        yield AddAlias("extra")
        yield 42

    scheduler.spawn("p", body())


def predicate_raises(scheduler):
    def body():
        yield AddAlias("extra")
        yield WaitUntil(lambda: None + 1, "a broken predicate")

    scheduler.spawn("p", body())


def killed_on_a_timed_select(scheduler):
    def body():
        yield AddAlias("extra")
        yield Select([Receive("nobody"), Send("nobody", 1)], timeout=10.0)

    scheduler.spawn("p", body())
    scheduler.kill_at(1.0, "p")


def killed_on_a_latch(scheduler):
    latch = Latch()

    def body():
        yield AddAlias("extra")
        yield WaitUntil(latch, "a latch nobody sets")

    scheduler.spawn("p", body())
    scheduler.kill_at(1.0, "p")
    return latch


def killed_mid_transit(scheduler):
    seen = []

    def sender():
        yield Send("p", "payload")
        return "sent"

    def body():
        yield AddAlias("extra")
        yield Receive("sender")

    def kill():
        scheduler.kill("p")
        # Right after the kill only the sender's delivery is armed.
        seen.append(scheduler.pending_timer_count)

    scheduler.spawn("sender", sender())
    scheduler.spawn("p", body())
    scheduler.schedule_at(5.0, kill)  # commit at t=0, delivery due at t=10
    return seen


def kills_itself_then_returns(scheduler):
    def body():
        yield AddAlias("extra")
        scheduler.kill("p")
        return "after the kill"

    scheduler.spawn("p", body())


def kills_itself_then_yields(scheduler):
    def body():
        yield AddAlias("extra")
        scheduler.kill("p")
        yield Receive("nobody")

    scheduler.spawn("p", body())


def interrupted(scheduler):
    seen = []

    def body():
        yield AddAlias("extra")
        try:
            yield Select([Receive("nobody")], timeout=10.0)
        except Cancelled:
            yield Delay(1.0)
            return "interrupted"

    def interrupt():
        scheduler.interrupt("p", Cancelled())
        # Right after the interrupt: the wait is gone, no exit traced.
        seen.append(("p" in scheduler.board.groups,
                     scheduler.pending_timer_count,
                     len(scheduler.tracer.of_kind(EventKind.PROC_DONE,
                                                  EventKind.PROC_FAIL))))

    scheduler.spawn("p", body())
    scheduler.schedule_at(1.0, interrupt)
    return seen


#: (build, expected exit kind, expected exit details, expected error type)
CASES = {
    "returns": (returns, EventKind.PROC_DONE, {}, None),
    "raises": (raises, EventKind.PROC_FAIL, {}, ValueError),
    "yields a non-effect": (yields_a_non_effect, EventKind.PROC_FAIL, {},
                            InvalidEffectError),
    "predicate raises": (predicate_raises, EventKind.PROC_FAIL, {},
                         TypeError),
    "killed on a timed select": (killed_on_a_timed_select,
                                 EventKind.PROC_DONE, {"killed": True},
                                 None),
    "killed on a latch": (killed_on_a_latch, EventKind.PROC_DONE,
                          {"killed": True}, None),
    "killed mid-transit": (killed_mid_transit, EventKind.PROC_DONE,
                           {"killed": True}, None),
    "kills itself then returns": (kills_itself_then_returns,
                                  EventKind.PROC_DONE, {"killed": True},
                                  None),
    "kills itself then yields": (kills_itself_then_yields,
                                 EventKind.PROC_DONE, {"killed": True},
                                 None),
    "interrupted": (interrupted, EventKind.PROC_DONE, {}, None),
}


def make_scheduler(board_cls):
    topology = Topology("pair")
    topology.add_link("a", "b", 10.0)
    transport = NetworkTransport(topology, {"sender": "a", "p": "b"})
    return Scheduler(seed=0, fail_fast=False, transport=transport,
                     board=board_cls() if board_cls else None)


@pytest.mark.parametrize("board_cls", [None, OracleBoard],
                         ids=["indexed", "oracle"])
@pytest.mark.parametrize("case", list(CASES))
def test_a_process_leaves_nothing_behind(case, board_cls):
    build, kind, details, error_type = CASES[case]
    scheduler = make_scheduler(board_cls)
    killed_seen = []
    scheduler.on_kill(lambda process: killed_seen.append(process.name))
    probe = build(scheduler)
    result = scheduler.run()

    process = scheduler.processes["p"]
    assert process.finished
    # No residue: board, waiters, timers, aliases.
    assert "p" not in scheduler.board.groups
    assert scheduler.board_size == 0
    assert scheduler.waiter_count == 0
    assert not scheduler._polled and not scheduler._fired
    assert scheduler.pending_timer_count == 0
    assert "p" not in scheduler._process_timers
    assert process.aliases == set()
    assert not [alias for alias, owner in scheduler.alias_owner.items()
                if owner is process]

    # Exactly one exit event per process, of the expected kind.
    for name in scheduler.processes:
        exits = [event for event in scheduler.tracer.for_process(name)
                 if event.kind in (EventKind.PROC_DONE,
                                   EventKind.PROC_FAIL)]
        assert len(exits) == 1, (name, exits)
    (exit_event,) = [event for event in scheduler.tracer.for_process("p")
                     if event.kind in (EventKind.PROC_DONE,
                                       EventKind.PROC_FAIL)]
    assert exit_event.kind is kind
    assert exit_event.get("killed") == details.get("killed")

    # The outcome lands in exactly one column of the run result.
    if error_type is not None:
        assert isinstance(result.failures["p"], error_type)
        assert exit_event.get("error") == repr(result.failures["p"])
    else:
        assert "p" not in result.failures
        assert exit_event.get("error") is None
    if details.get("killed"):
        assert result.killed == ["p"]
        assert "p" not in result.results
        assert process.result is None
        assert killed_seen == ["p"]
    else:
        assert result.killed == []
        assert killed_seen == []
    if case == "returns":
        assert result.results["p"] == "fine"
    if case == "killed on a timed select":
        assert result.time == 1.0  # the expiry went with the process
    if case == "killed on a latch":
        assert probe._parked == {}
    if case == "killed mid-transit":
        assert probe == [1]
        assert result.results["sender"] == "sent"
        assert result.time == 10.0  # only the sender's delivery lands
    if case == "interrupted":
        # The interrupt withdrew the select and its expiry and traced no
        # exit; the body's return did, after its own delay.
        assert probe == [(False, 0, 0)]
        assert result.results["p"] == "interrupted"
        assert result.time == 2.0
        assert len(scheduler.tracer.of_kind(EventKind.INTERRUPT)) == 1
