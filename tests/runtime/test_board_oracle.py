"""Differential oracle: the indexed board must replay the full scan exactly.

The incremental :class:`~repro.runtime.board_index.IndexedBoard` claims to
maintain the very candidate set — in the very order — the full-scan
:class:`~repro.runtime.board_oracle.OracleBoard` derives from scratch.
Because the scheduler's seeded RNG draws from that ordered list, *any*
divergence (a missing pair, a stale pair, a reordering) changes some
seeded run's trace.  These tests therefore generate randomized workloads
mixing every event that can dirty the index — sends, receives, selects
(immediate, timed, plain), delays, alias claims/releases, waiters,
partitions with heals, crashes — run each under both boards with the same
seed, and require byte-identical formatted traces plus identical run
outcomes and residue.
"""

import random

import pytest

from repro.errors import DeadlockError, StepLimitExceeded
from repro.net import NetworkTransport, complete
from repro.runtime import (AddAlias, Choice, Delay, DropAlias, GetName,
                           GetTime, IndexedBoard, OracleBoard, QueryProcesses,
                           Receive, Scheduler, Select, Send, Trace, WaitUntil,
                           format_trace)

TAGS = (None, "a", "b")


# ---------------------------------------------------------------------------
# Workload generation: a spec is plain data, so one spec can drive two runs
# ---------------------------------------------------------------------------

def build_spec(rng: random.Random) -> dict:
    """A randomized workload spec (processes, ops, faults) as plain data.

    Tuned so that rendezvous actually happen (mostly wildcard receives,
    mostly untagged messages, targets mostly plain process names) while
    still covering the rare shapes: role-addressed sends that only match
    inside a claim window, tag mismatches, immediate selects, blocking
    sends that end a run in deadlock.
    """
    n = rng.randint(3, 6)
    procs = [f"p{i}" for i in range(n)]
    roles = {p: f"{p}.role" for p in procs}  # private extra alias per process

    def tag():
        r = rng.random()
        return None if r < 0.6 else ("a" if r < 0.85 else "b")

    def address(skip):
        others = [q for q in procs if q != skip]
        target = rng.choice(others)
        return target if rng.random() < 0.75 else roles[target]

    def branch(skip):
        if rng.random() < 0.5:
            return ("s", address(skip), tag())
        frm = None if rng.random() < 0.6 else address(skip)
        return ("r", frm, tag())

    spec_procs = {}
    for p in procs:
        ops = [("claim",)] if rng.random() < 0.6 else []
        for _ in range(rng.randint(3, 7)):
            r = rng.random()
            if r < 0.08:
                ops.append(("send", address(p), tag()))
            elif r < 0.24:  # a send that gives up on its select timeout
                ops.append(("timed_send", address(p), tag(),
                            round(rng.uniform(0.5, 4.0), 1)))
            elif r < 0.58:
                frm = None if rng.random() < 0.6 else address(p)
                ops.append(("recv", frm, tag(),
                            round(rng.uniform(0.5, 5.0), 1)))
            elif r < 0.74:
                branches = tuple(branch(p) for _ in range(rng.randint(2, 3)))
                timeout = round(rng.uniform(0.5, 4.0), 1) \
                    if rng.random() < 0.7 else None
                immediate = timeout is None and rng.random() < 0.3
                ops.append(("select", branches, timeout, immediate))
            elif r < 0.82:
                ops.append(("delay", round(rng.uniform(0.1, 2.0), 1)))
            elif r < 0.86:
                ops.append(("claim",))
            elif r < 0.90:
                ops.append(("drop",))
            elif r < 0.94:
                ops.append(("waituntil", round(rng.uniform(0.5, 4.0), 1)))
            elif r < 0.97:
                ops.append(("choice", tuple(range(rng.randint(2, 4)))))
            else:
                ops.append(("query",))
        if rng.random() < 0.8:  # drain: soak up straggling sends
            ops.append(("drain", rng.randint(1, 3),
                        round(rng.uniform(1.0, 4.0), 1)))
        spec_procs[p] = ops

    faults = []
    if rng.random() < 0.5:  # one partition window between two process nodes
        a, b = rng.sample(range(n), 2)
        start = round(rng.uniform(0.2, 3.0), 1)
        faults.append(("partition", a, b, start,
                       round(start + rng.uniform(0.5, 3.0), 1)))
    if rng.random() < 0.3:  # one crash
        faults.append(("crash", rng.choice(procs),
                       round(rng.uniform(0.5, 4.0), 1)))
    return {"procs": spec_procs, "roles": roles, "faults": faults,
            "transport": rng.random() < 0.5}


def make_body(name, ops, roles, scheduler):
    """Instantiate one process generator from its op list."""

    def gen():
        for op in ops:
            kind = op[0]
            if kind == "send":
                yield Send(op[1], (name, op[1]), tag=op[2])
            elif kind == "timed_send":
                yield Select((Send(op[1], (name, "d"), tag=op[2]),),
                             timeout=op[3])
            elif kind == "recv":
                yield Select((Receive(op[1], tag=op[2]),), timeout=op[3])
            elif kind == "drain":
                for _ in range(op[1]):
                    yield Select((Receive(None),), timeout=op[2])
            elif kind == "select":
                branches = tuple(
                    Send(b[1], (name, "sel"), tag=b[2]) if b[0] == "s"
                    else Receive(b[1], tag=b[2]) for b in op[1])
                yield Select(branches, timeout=op[2], immediate=op[3])
            elif kind == "delay":
                yield Delay(op[1])
            elif kind == "claim":
                yield AddAlias(roles[name])
            elif kind == "drop":
                yield DropAlias(roles[name])
            elif kind == "waituntil":
                # Waking depends on kernel state the two boards must keep
                # identical (clock, board depth, armed timers), so a
                # divergence shows up as a different wake time.
                deadline = op[1]
                yield WaitUntil(
                    lambda: scheduler.now >= deadline or (
                        scheduler.board_size == 0
                        and scheduler.pending_timer_count == 0),
                    f"now>={deadline} or quiescent")
            elif kind == "choice":
                choice = yield Choice(op[1])
                yield Trace("chose", {"value": choice})
            elif kind == "query":
                me = yield GetName()
                now = yield GetTime()
                status = yield QueryProcesses(("p0", "p1"))
                yield Trace("query", {"me": me, "now": now,
                                      "done": sorted(status.items())})
        return f"{name}:done"

    return gen()


def run_spec(spec: dict, seed: int, board) -> tuple[str, tuple]:
    """Run one spec under ``board``; return (trace text, outcome tuple)."""
    scheduler = Scheduler(seed=seed, board=board, max_steps=50_000,
                          fail_fast=False)
    names = list(spec["procs"])
    if spec["transport"] or any(f[0] == "partition"
                                for f in spec["faults"]):
        topology = complete(len(names), latency=0.2)
        placement = {name: ("n", i) for i, name in enumerate(names)}
        transport = NetworkTransport(topology, placement, default_node=("n", 0))
        scheduler.transport = transport
        scheduler.match_filter = transport.match_filter
        for fault in spec["faults"]:
            if fault[0] == "partition":
                _, a, b, start, heal = fault
                scheduler.schedule_at(
                    start, lambda a=a, b=b: transport.partition(
                        ("n", a), ("n", b)))
                scheduler.schedule_at(
                    heal, lambda a=a, b=b: transport.heal(("n", a), ("n", b)))
    for fault in spec["faults"]:
        if fault[0] == "crash":
            scheduler.kill_at(fault[2], fault[1])
    for name, ops in spec["procs"].items():
        scheduler.spawn(name, make_body(name, ops, spec["roles"], scheduler))
    try:
        result = scheduler.run()
        outcome = ("ok",
                   sorted((k, repr(v)) for k, v in result.results.items()),
                   sorted((k, repr(v)) for k, v in result.failures.items()),
                   sorted(result.killed))
    except DeadlockError as exc:
        outcome = ("deadlock", str(exc))
    except StepLimitExceeded:
        outcome = ("steplimit",)
    residue = (scheduler.board_size, scheduler.waiter_count,
               scheduler.pending_timer_count, scheduler.now)
    return format_trace(scheduler.tracer), outcome + (residue,)


# ---------------------------------------------------------------------------
# The differential property
# ---------------------------------------------------------------------------

WORKLOADS = 50
SEEDS_PER_WORKLOAD = 4  # 50 x 4 = 200 (workload, seed) pairs


@pytest.mark.parametrize("workload", range(WORKLOADS))
def test_indexed_board_matches_oracle(workload):
    spec = build_spec(random.Random(9_000 + workload))
    for seed in range(SEEDS_PER_WORKLOAD):
        oracle_trace, oracle_outcome = run_spec(spec, seed, OracleBoard())
        indexed_trace, indexed_outcome = run_spec(spec, seed, IndexedBoard())
        assert indexed_trace == oracle_trace, (
            f"workload {workload} seed {seed}: traces diverge")
        assert indexed_outcome == oracle_outcome, (
            f"workload {workload} seed {seed}: outcomes diverge")


def test_oracle_pairing_covers_interesting_events():
    """The generated corpus must actually exercise the dirty-event space."""
    kinds = set()
    fault_kinds = set()
    for workload in range(WORKLOADS):
        spec = build_spec(random.Random(9_000 + workload))
        for ops in spec["procs"].values():
            kinds.update(op[0] for op in ops)
        fault_kinds.update(f[0] for f in spec["faults"])
    assert {"send", "recv", "select", "delay", "claim", "drop",
            "waituntil", "timed_send"} <= kinds
    assert {"partition", "crash"} <= fault_kinds


def test_indexed_board_is_the_default():
    assert isinstance(Scheduler()._board, IndexedBoard)
