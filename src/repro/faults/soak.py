"""Chaos soak harness: many performances under seeded fault schedules.

The harness runs three scripts — the broadcast (Section II's running
example, in an open-membership chaos variant), the Figure 5 replicated
lock manager, and an open chatroom with member churn (Section V's
open-ended scripts under load) — for hundreds of performances, each under
a deterministic :class:`~repro.faults.plan.FaultPlan`, and checks after
every run that the kernel is residue-free:

* the rendezvous board is empty (no orphaned offers),
* no process is still parked on a condition,
* no timers are armed,
* the alias registry is empty (crashes and aborts dropped every role
  address),
* every enrollment pool drained and every performance ended.

Semantic invariants ride along: a completed chaos broadcast must have
delivered the payload to every surviving recipient, and an aborted one
must stem from a sender crash.  Violations raise
:class:`~repro.errors.ChaosInvariantError` naming the seed, so a soak
failure is a one-seed reproduction recipe.

Determinism is checked separately by :func:`verify_determinism`: the same
seed must produce a byte-identical formatted trace, faults included.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from typing import Any, Generator, Hashable

from ..core import (Initiation, Mode, Param, ScriptDef, ScriptInstance,
                    SealPolicy, SendTo, Termination, UNFILLED)
from ..errors import ChaosInvariantError, PerformanceAborted
from ..net import complete, star
from ..reporting import kv_lines
from ..runtime import TIMED_OUT, Delay, RunResult
from ..scenarios import FaultContract, Run, finish, lookup, run_checked, world
from ..scripts.lockmanager import MAJORITY, ReplicatedLockService
from .plan import FaultPlan

Body = Generator[Any, Any, Any]

#: The chaos broadcast's payload, seal window and fault horizon.
PAYLOAD = "payload"
BROADCAST_WINDOW = 3.0
BROADCAST_HORIZON = 30.0

#: The lock workload's replica count and fault horizon.
LOCK_MANAGERS = 3
LOCK_HORIZON = 12.0

#: The chatroom's host rounds, join window and fault horizon, and how
#: long a host send and a member receive wait before giving up.
CHATROOM_ROUNDS = 4
CHATROOM_WINDOW = 3.0
CHATROOM_HORIZON = 40.0
SEND_PATIENCE = 2.0
MEMBER_PATIENCE = 6.0


# ---------------------------------------------------------------------------
# The chaos broadcast script (open membership, manual seal, critical sender)
# ---------------------------------------------------------------------------

def make_chaos_broadcast(n: int = 4,
                         enroll_window: float = BROADCAST_WINDOW
                         ) -> ScriptDef:
    """A broadcast built to be crashed into.

    Immediate initiation with a *manual* seal: the sender waits
    ``enroll_window`` virtual-time units for recipients to trickle in,
    seals the performance itself, and broadcasts to whoever made it —
    absent recipients get the paper's unfilled-role treatment.  Only the
    sender is critical, so a recipient crash demotes to absence while a
    sender crash aborts the performance.

    Recipients receive with a timeout and retry, so a link partition that
    outlasts one rendezvous attempt is survived rather than wedged.
    """
    script = ScriptDef("chaos_broadcast", initiation=Initiation.IMMEDIATE,
                       termination=Termination.IMMEDIATE)

    @script.role("sender", params=[Param("data", Mode.IN)])
    def sender(ctx: Any, data: Any) -> Body:
        yield Delay(enroll_window)
        ctx.close_enrollment()
        for i in ctx.family_indices("recipient"):
            yield from ctx.send(("recipient", i), data)

    @script.role_family("recipient", range(1, n + 1),
                        params=[Param("data", Mode.OUT)])
    def recipient(ctx: Any, data: Any) -> Body:
        while True:
            value = yield from ctx.receive("sender",
                                           timeout=2 * enroll_window)
            if value is TIMED_OUT:
                continue  # partition outlasted one attempt; retry
            data.value = value
            return

    script.critical_role_set("sender")
    return script


# ---------------------------------------------------------------------------
# The open-chatroom churn script (Section V open family, manual seal)
# ---------------------------------------------------------------------------

def make_chatroom(max_members: int = 4) -> ScriptDef:
    """An open chatroom built to churn: members join, depart, and crash.

    The host (critical) keeps enrollment open for
    :data:`CHATROOM_WINDOW`, seals the room itself, then broadcasts
    :data:`CHATROOM_ROUNDS` numbered messages to whichever members made
    it in.  Every host send is a bounded select — a partitioned or
    departed member costs :data:`SEND_PATIENCE`, never a wedge.  Members
    receive with :data:`MEMBER_PATIENCE` and *depart* (role body returns)
    after their planned ``stay`` rounds or on a timeout, so the member
    population shrinks mid-performance — the open-ended-script behaviour
    the Section V extension promises.
    """
    script = ScriptDef("chaos_chatroom", initiation=Initiation.IMMEDIATE,
                       termination=Termination.IMMEDIATE)

    @script.role("host", params=[Param("delivered", Mode.OUT)])
    def host(ctx: Any, delivered: Any) -> Body:
        yield Delay(CHATROOM_WINDOW)
        ctx.close_enrollment()
        sent: list[tuple[int, int]] = []
        for r in range(CHATROOM_ROUNDS):
            for i in ctx.family_indices("member"):
                member = ("member", i)
                if ctx.terminated(member):
                    continue  # departed or demoted to absence
                result = yield from ctx.select(
                    [SendTo(member, (r, f"news-{r}"))],
                    timeout=SEND_PATIENCE)
                if result.index == 0:
                    sent.append((r, i))
        delivered.value = sent

    @script.role_family("member", None, min_count=0, max_count=max_members,
                        params=[Param("stay", Mode.IN),
                                Param("log", Mode.OUT)])
    def member(ctx: Any, stay: Any, log: Any) -> Body:
        received: list[Any] = []
        while True:
            value = yield from ctx.receive("host", timeout=MEMBER_PATIENCE)
            if value is TIMED_OUT or value is UNFILLED:
                break  # host quiet for too long (or gone): depart
            received.append(value)
            if value[0] + 1 >= stay:
                break  # planned departure mid-performance
        log.value = received

    script.critical_role_set("host")
    return script


# ---------------------------------------------------------------------------
# Seed-derived fault plans (shared by the runners, `plan_for_seed`, and
# the --describe-plan CLI: one draw sequence, two consumers)
# ---------------------------------------------------------------------------

def broadcast_plan(rng: random.Random, n: int = 4) -> FaultPlan:
    """The seed-derived default plan of :func:`run_chaos_broadcast`.

    Possible sender crash (only after the seal window — a pre-seal sender
    crash leaves an unsealable performance, which is a scripted-system
    design error, not a chaos finding), recipient crashes at any time,
    one hub-leaf partition window, and optional latency/drop windows.
    """
    window, horizon = BROADCAST_WINDOW, BROADCAST_HORIZON
    plan = FaultPlan()
    if rng.random() < 0.25:
        plan.crash(round(rng.uniform(window + 0.5, horizon / 2), 3), "S")
    for i in range(1, n + 1):
        if rng.random() < 0.3:
            plan.crash(round(rng.uniform(0.2, horizon / 2), 3), ("R", i))
    if rng.random() < 0.5:
        leaf = rng.randint(1, n)
        start = round(rng.uniform(0.2, window + 2.0), 3)
        plan.partition(start, "hub", ("leaf", leaf),
                       heal_at=round(start + rng.uniform(0.5, 4.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.slow(start, round(rng.uniform(2.0, 5.0), 2),
                  until=round(start + rng.uniform(1.0, 5.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.drop(start, rng.randint(1, 3),
                  until=round(start + rng.uniform(1.0, 5.0), 3))
    return plan


def lock_plan(rng: random.Random, clients: int = 4) -> FaultPlan:
    """The seed-derived default plan of :func:`run_chaos_lock`.

    Client crashes only: managers hold the lock tables, which must
    survive the soak, so killing one is out of contract by design.
    """
    plan = FaultPlan()
    for i in range(1, clients + 1):
        if rng.random() < 0.4:
            plan.crash(round(rng.uniform(0.2, LOCK_HORIZON * 0.6), 3),
                       ("client", i))
    return plan


def chatroom_plan(rng: random.Random, n: int = 4) -> FaultPlan:
    """The seed-derived default plan of :func:`run_chaos_chatroom`.

    Possible host crash (post-seal only, like the broadcast's sender),
    member crashes at any time, one hub-leaf partition that sometimes
    *never heals* (chatrooms tolerate a member falling off the net: the
    member departs on timeout), and optional latency/drop windows.
    """
    window, horizon = CHATROOM_WINDOW, CHATROOM_HORIZON
    plan = FaultPlan()
    if rng.random() < 0.25:
        plan.crash(round(rng.uniform(window + 0.5, horizon / 2), 3), "H")
    for i in range(1, n + 1):
        if rng.random() < 0.3:
            plan.crash(round(rng.uniform(0.2, horizon / 2), 3), ("M", i))
    if rng.random() < 0.5:
        leaf = rng.randint(1, n)
        start = round(rng.uniform(0.2, window + 2.0), 3)
        if rng.random() < 0.35:
            plan.partition(start, "hub", ("leaf", leaf))  # never heals
        else:
            plan.partition(start, "hub", ("leaf", leaf),
                           heal_at=round(start + rng.uniform(0.5, 4.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.slow(start, round(rng.uniform(2.0, 5.0), 2),
                  until=round(start + rng.uniform(1.0, 5.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.drop(start, rng.randint(1, 3),
                  until=round(start + rng.uniform(1.0, 5.0), 3))
    return plan


def plan_for_seed(script: str, seed: int, **sizes: Any) -> FaultPlan:
    """The fault plan a plan-less run of ``script`` at ``seed`` installs.

    Replays exactly the runner's RNG draw sequence (the generators above
    run first against a fresh ``random.Random(seed)`` in every runner),
    so ``plan_for_seed(s, seed).describe() == run(seed).faults`` — pinned
    by test.  ``sizes`` accepts the plan generator's sizing keywords.
    """
    return lookup(script, planned=True).plan(random.Random(seed), **sizes)


# ---------------------------------------------------------------------------
# Packaging a run
# ---------------------------------------------------------------------------

def _fail(seed: int, message: str) -> None:
    raise ChaosInvariantError(f"seed {seed}: {message}",
                              category="semantics")


def _chaos_run(seed: int, result: RunResult, supervisor: Any,
               instance: ScriptInstance, plan: FaultPlan,
               contract: FaultContract, journal: Any) -> Run:
    """:func:`~repro.scenarios.finish` for the chaos entries: the outcome
    follows the supervisor, and the headline is shared."""
    outcome = "aborted" if supervisor.aborts else "completed"
    performances, faults = instance.performance_count, plan.describe()
    return finish(seed, result, journal, outcome,
                  f"chaos run {outcome}: {performances} performance(s), "
                  f"{len(faults)} fault event(s), {len(result.killed)} "
                  f"kill(s), t={result.time:g}",
                  performances=performances, crashes=supervisor.crashes,
                  aborts=supervisor.aborts, faults=faults,
                  contract=contract)


def _star_contract(hub: str, leaf: str, n: int, seal_window: float,
                   horizon: float, heal_required: bool) -> FaultContract:
    """A star run's contract: the critical hub process may crash only
    after its seal window; every hub-leaf link may be cut."""
    return FaultContract(
        processes=(hub,) + tuple((leaf, i) for i in range(1, n + 1)),
        critical=frozenset({hub}),
        links=tuple(("hub", ("leaf", i)) for i in range(1, n + 1)),
        crash_after={hub: seal_window}, heal_required=heal_required,
        transport_faults=True, horizon=horizon)


# ---------------------------------------------------------------------------
# Broadcast under chaos
# ---------------------------------------------------------------------------

def run_chaos_broadcast(seed: int, *, n: int = 4,
                        plan: FaultPlan | None = None,
                        journal: Any = None) -> Run:
    """One chaos broadcast: star network, seeded faults, full invariants.

    The sender sits on the hub, recipient *i* on leaf *i*.  Without an
    explicit ``plan``, a seed-derived one is generated: possible sender
    crash (only after the seal window — a pre-seal sender crash leaves an
    unsealable performance, which is a scripted-system design error, not a
    chaos finding), recipient crashes at any time, one hub-leaf partition
    window, and optional latency/drop windows.

    ``journal`` is the run's hook (see :mod:`repro.scenarios`): a frame
    sink (journal recorder or resume) or metrics bundle, attached before
    any process exists.
    """
    placement: dict[Hashable, Any] = {"S": "hub"}
    placement.update({("R", i): ("leaf", i) for i in range(1, n + 1)})
    scheduler, transport = world(seed, star(n), placement, journal)

    script = make_chaos_broadcast(n)
    # Explicit name: the default names draw on a process-global counter,
    # which would leak into performance ids and break trace determinism.
    instance = script.instance(scheduler, name="chaos_broadcast",
                               seal_policy=SealPolicy.MANUAL)
    supervisor = instance.supervise()

    rng = random.Random(seed)
    if plan is None:
        plan = broadcast_plan(rng, n)
    plan.install(scheduler, transport=transport)

    def sender_process() -> Body:
        try:
            yield from instance.enroll("sender", data=PAYLOAD)
        except PerformanceAborted:
            return "aborted"
        return "sent"

    def recipient_process(i: int, stagger: float) -> Body:
        yield Delay(stagger)
        try:
            out = yield from instance.enroll(
                ("recipient", i),
                withdraw_when=lambda: supervisor.aborts > 0)
        except PerformanceAborted:
            return "aborted"
        if out is None:
            return "withdrawn"
        return out["data"]

    scheduler.spawn("S", sender_process())
    for i in range(1, n + 1):
        stagger = round(rng.uniform(0.0, 0.8 * BROADCAST_WINDOW), 3)
        scheduler.spawn(("R", i), recipient_process(i, stagger))

    result = run_checked(scheduler, seed, instance)
    if supervisor.aborts:
        if "S" not in result.killed:
            _fail(seed, "performance aborted but the sender survived")
    else:
        for i in range(1, n + 1):
            name = ("R", i)
            if name in result.killed:
                continue
            if result.results.get(name) != PAYLOAD:
                _fail(seed, f"recipient {i} survived a completed broadcast "
                            f"but holds {result.results.get(name)!r}")
    contract = _star_contract("S", "R", n, BROADCAST_WINDOW,
                              BROADCAST_HORIZON, heal_required=True)
    return _chaos_run(seed, result, supervisor, instance, plan, contract,
                      journal)


# ---------------------------------------------------------------------------
# Lock manager under chaos
# ---------------------------------------------------------------------------

def run_chaos_lock(seed: int, *, clients: int = 4,
                   plan: FaultPlan | None = None,
                   journal: Any = None) -> Run:
    """One chaos lock-manager workload: client crashes mid-protocol.

    Each client starts at a staggered virtual time, takes a majority lock
    on one of two contended items, holds it for a while and releases; the
    fault plan kills a random subset of clients at random times inside
    that window.  A crashed lone client aborts its performance (no
    critical set stays covered) and the managers — supervised, unlike the
    plain demo — catch :class:`~repro.errors.PerformanceAborted` and
    re-enroll for the survivors.  A crashed client whose performance also
    held another client degrades to absence and the performance completes.
    Managers never crash: the lock tables must survive the soak.
    """
    # One node per participant, complete graph, unit latency: every
    # manager round-trip advances the clock, so performances span virtual
    # time and crash timers can land *inside* one.
    k, horizon = LOCK_MANAGERS, LOCK_HORIZON
    placement: dict[Hashable, Any] = {}
    for index in range(1, k + 1):
        placement[("manager-proc", index)] = ("n", index - 1)
    for i in range(1, clients + 1):
        placement[("client", i)] = ("n", k + i - 1)
    scheduler, _ = world(seed, complete(k + clients), placement, journal)
    service = ReplicatedLockService(scheduler, k=k, strategy=MAJORITY,
                                    instance_name="chaos_lock")
    instance = service.instance
    supervisor = instance.supervise()
    rng = random.Random(seed)
    # The plan is drawn before the client staggers so that a fresh
    # ``random.Random(seed)`` reproduces it: the contract behind
    # :func:`plan_for_seed` and the ``--describe-plan`` CLI.
    if plan is None:
        plan = lock_plan(rng, clients)

    finished: set[int] = set()

    def all_done() -> bool:
        return len(finished) >= clients

    def note_kill(process: Any) -> None:
        name = process.name
        if isinstance(name, tuple) and name[0] == "client":
            finished.add(name[1])

    scheduler.on_kill(note_kill)

    def manager_process(index: int) -> Body:
        served = 0
        while not all_done():
            try:
                out = yield from instance.enroll(
                    ("manager", index), table=service.tables[index - 1],
                    withdraw_when=all_done)
            except PerformanceAborted:
                continue  # crashed client took the performance down; re-arm
            if out is None:
                break
            served += 1
        return served

    def client_process(i: int, start: float, hold: float) -> Body:
        role = "reader" if i % 2 else "writer"
        item = ("item", i % 2)
        history: list[str] = []
        yield Delay(start)
        try:
            status = yield from service.request(role, ("c", i), item, "lock")
            history.append(status)
            if status == "granted":
                yield Delay(hold)
                history.append((yield from service.request(
                    role, ("c", i), item, "release")))
        except PerformanceAborted:
            history.append("aborted")
        finished.add(i)
        return history

    for index in range(1, k + 1):
        scheduler.spawn(("manager-proc", index), manager_process(index))
    for i in range(1, clients + 1):
        start = round(rng.uniform(0.0, horizon / 3), 3)
        hold = round(rng.uniform(0.5, horizon / 4), 3)
        scheduler.spawn(("client", i), client_process(i, start, hold))

    plan.install(scheduler)

    result = run_checked(scheduler, seed, instance)
    for i in range(1, clients + 1):
        name = ("client", i)
        if name in result.killed:
            continue
        history = result.results.get(name)
        if not history:
            _fail(seed, f"surviving client {i} finished without a status")
        if history[0] == "granted" and history[-1] not in ("released",
                                                           "aborted"):
            _fail(seed, f"client {i} was granted but never released: "
                        f"{history!r}")
    contract = FaultContract(
        processes=tuple(("client", i) for i in range(1, clients + 1)),
        critical=frozenset(),
        # Managers hold the lock tables and must outlive the run; no link
        # or transport faults either — the lock protocol has no retry
        # story, which is the scenario's documented contract.
        links=(), crash_after={}, heal_required=True,
        transport_faults=False, horizon=horizon)
    return _chaos_run(seed, result, supervisor, instance, plan, contract,
                      journal)


# ---------------------------------------------------------------------------
# Chatroom under churn
# ---------------------------------------------------------------------------

def run_chaos_chatroom(seed: int, *, n: int = 4,
                       plan: FaultPlan | None = None,
                       journal: Any = None) -> Run:
    """One chaos chatroom: open membership, departures, seeded churn.

    The host sits on the hub of a star, member *i* on leaf *i*.  Members
    arrive staggered — deliberately wider than the join window, so some
    arrive *after* the room sealed and must walk away rather than wedge
    the instance with a hostless second performance.  Each member draws a
    planned ``stay`` (how many rounds before departing); the fault plan
    adds crashes, a partition that may never heal, and latency/drop
    windows on top.

    Invariants checked per run: an aborted performance implies the host
    was killed; every surviving member's log is a prefix-consistent
    subsequence of the host's numbered messages (strictly increasing
    rounds, each with its round's payload).
    """
    placement: dict[Hashable, Any] = {"H": "hub"}
    placement.update({("M", i): ("leaf", i) for i in range(1, n + 1)})
    scheduler, transport = world(seed, star(n), placement, journal)

    script = make_chatroom(max_members=n)
    instance = script.instance(scheduler, name="chaos_chatroom",
                               seal_policy=SealPolicy.MANUAL)
    supervisor = instance.supervise()

    rng = random.Random(seed)
    if plan is None:
        plan = chatroom_plan(rng, n)
    plan.install(scheduler, transport=transport)

    def room_open() -> bool:
        # The chatroom is a one-performance script: a member arriving
        # after the room sealed (or after an abort tore it down) must not
        # enroll — its request would immediately start a hostless second
        # performance that can never seal.  It walks away instead.
        if supervisor.aborts:
            return False
        current = instance.current
        if current is not None:
            return not current.sealed
        return not instance.performances

    def host_process() -> Body:
        try:
            out = yield from instance.enroll("host")
        except PerformanceAborted:
            return "aborted"
        return out["delivered"]

    def member_process(i: int, stagger: float, stay: int) -> Body:
        yield Delay(stagger)
        if not room_open():
            return "missed"
        try:
            out = yield from instance.enroll(
                "member", stay=stay,
                withdraw_when=lambda: not room_open())
        except PerformanceAborted:
            return "aborted"
        if out is None:
            return "withdrawn"
        return out["log"]

    scheduler.spawn("H", host_process())
    for i in range(1, n + 1):
        stagger = round(rng.uniform(0.0, 1.6 * CHATROOM_WINDOW), 3)
        stay = rng.randint(1, CHATROOM_ROUNDS + 1)
        scheduler.spawn(("M", i), member_process(i, stagger, stay))

    result = run_checked(scheduler, seed, instance)
    if supervisor.aborts and "H" not in result.killed:
        _fail(seed, "performance aborted but the host survived")
    for i in range(1, n + 1):
        name = ("M", i)
        if name in result.killed:
            continue
        log = result.results.get(name)
        if not isinstance(log, list):
            continue  # "missed" / "withdrawn" / "aborted"
        last_round = -1
        for entry in log:
            r, payload = entry
            if r <= last_round:
                _fail(seed, f"member {i} log rounds not increasing: {log!r}")
            if payload != f"news-{r}":
                _fail(seed, f"member {i} received corrupt round {r}: "
                            f"{entry!r}")
            last_round = r
    # Members depart on timeout, so a partition need never heal.
    contract = _star_contract("H", "M", n, CHATROOM_WINDOW,
                              CHATROOM_HORIZON, heal_required=False)
    return _chaos_run(seed, result, supervisor, instance, plan, contract,
                      journal)


# ---------------------------------------------------------------------------
# The soak loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class SoakReport:
    """Aggregate of a whole soak (one seed per run, seeds consecutive)."""

    script: str
    runs: int
    base_seed: int
    outcomes: Counter
    crashes: int = 0
    aborts: int = 0
    performances: int = 0
    faults: int = 0
    #: Each :attr:`~repro.scenarios.Run.counters` name, summed over runs.
    counters: Counter = dataclasses.field(default_factory=Counter)
    #: Formatted trace of the base-seed run, for ``--trace-out``.
    base_trace: str = ""

    def lines(self) -> list[str]:
        """Human-readable summary for the CLI."""
        share = ", ".join(f"{name}: {count}"
                          for name, count in sorted(self.outcomes.items()))
        return kv_lines(
            f"chaos soak: {self.script}, {self.runs} runs "
            f"(seeds {self.base_seed}..{self.base_seed + self.runs - 1})",
            [
                ("outcomes", share),
                ("performances", self.performances),
                ("role crashes",
                 f"{self.crashes} (aborted performances: {self.aborts})"),
                ("fault events", self.faults),
                *self.counters.items(),
                ("residue", "none (checked after every run)"),
            ])


def soak(script: str = "broadcast", runs: int = 100,
         seed: int = 0) -> SoakReport:
    """Run ``runs`` chaos runs with consecutive seeds; raise on any residue.

    ``script`` names a catalogue entry with a fault plan.  Each run's
    ``counters`` are summed by name.
    """
    scenario = lookup(script, planned=True)
    report = SoakReport(script=script, runs=runs, base_seed=seed,
                        outcomes=Counter())
    for offset in range(runs):
        run = scenario.run(seed + offset)
        if offset == 0:
            report.base_trace = run.trace
        report.outcomes[run.outcome] += 1
        report.crashes += run.crashes
        report.aborts += run.aborts
        report.performances += run.performances
        report.faults += len(run.faults)
        report.counters.update(run.counters)
    return report


def verify_determinism(script: str = "broadcast", seed: int = 0) -> bool:
    """Run one seed twice; True iff the formatted traces are identical."""
    scenario = lookup(script)
    first = scenario.run(seed)
    second = scenario.run(seed)
    return first.trace == second.trace
