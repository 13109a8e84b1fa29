"""The scenario catalogue: every workload the tools run, in one record each.

A *scenario* is a seeded run of script performances on a simulated
network.  Every tool that takes a scenario name — ``trace``, ``stats``,
``profile``, the ``chaos`` soak and its ``--verify``/``--describe-plan``/
``--explore``/``--replay-plan``/``--kill9`` modes, ``record_run`` and
``resume`` — resolves it here, so a new entry reaches all of them at once.

Each runner has one signature, ``run(seed, *, journal=None, **sizes)``
(plus ``plan=`` where the entry has a fault plan), and one run path: it
builds its world with :func:`world`, runs it with :func:`run_checked`,
and returns the :class:`Run` that :func:`finish` builds.  ``journal`` is
the one instrumentation hook: any object with ``attach(scheduler)``,
``finish(outcome)`` and ``barrier()``.  The journal's frame sink (which
records, resumes and gives the explorer its injection points) and the
metrics/profiler bundle of :func:`~repro.obs.scenarios.run_scenario`
ride it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Hashable

from .core import ScriptInstance
from .errors import ChaosInvariantError
from .net import NetworkTransport, Topology
from .runtime import RunResult, Scheduler, TraceEvent, format_trace


@dataclasses.dataclass(frozen=True)
class FaultContract:
    """What the fault explorer may legally do to one chaos run.

    Each chaos run records the contract for the sizes it ran with.
    ``crash_after`` maps a process to the earliest *strict* crash time:
    plan timers are installed before any process spawns, so at equal
    timestamps a crash fires before the victim's own timer — a crash at
    exactly the seal instant would kill the critical role pre-seal,
    which is outside the scripted system's contract (an unsealable
    performance), not a chaos finding.  ``heal_required`` excludes
    never-healing partitions for scenarios whose roles retry forever;
    ``transport_faults`` gates latency/drop windows to scenarios whose
    roles are written to absorb them.
    """

    processes: tuple[Hashable, ...]
    critical: frozenset
    links: tuple[tuple[Hashable, Hashable], ...]
    crash_after: dict[Hashable, float]
    heal_required: bool
    transport_faults: bool
    horizon: float


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One catalogue entry.

    ``size`` is the sizing keyword the CLI's ``--n`` sets (None: the
    workload has a fixed size).  ``plan`` is the seed-derived fault-plan
    generator, called as ``plan(random.Random(seed), **sizes)`` with the
    same draws the runner makes when given no plan.  ``explorable``
    entries return a :class:`FaultContract` with every run.
    """

    name: str
    runner: Callable[..., Any]
    size: str | None = None
    plan: Callable[..., Any] | None = None
    explorable: bool = False

    def run(self, seed: int, **options: Any) -> Run:
        """Run at ``seed``; a ``plan`` given as JSON (journal headers,
        counterexample files) is decoded here, for every tool."""
        if isinstance(options.get("plan"), (dict, list)):
            from .faults.plan import FaultPlan
            options["plan"] = FaultPlan.from_jsonable(options["plan"])
        return self.runner(seed, **options)

    def sized(self, n: int) -> dict[str, int]:
        """The sizing keywords that ``--n n`` stands for."""
        return {self.size: n} if self.size is not None else {}


def world(seed: int, topology: Topology, placement: dict[Hashable, Any],
          journal: Any = None) -> tuple[Scheduler, NetworkTransport]:
    """A seeded scheduler on a placement-aware network, hook attached.

    The hook attaches before any process exists, so it sees every
    nondeterminism-resolving step of the run.
    """
    scheduler = Scheduler(seed=seed)
    transport = NetworkTransport(topology, placement)
    scheduler.transport = transport
    if journal is not None:
        journal.attach(scheduler)
    return scheduler, transport


@dataclasses.dataclass(slots=True)
class Run:
    """What one run of any catalogue entry produced.

    ``events`` is the run's whole trace, so any entry's run can be
    checked against the paper's properties or exported as spans.
    ``performances`` counts every performance formed, aborted ones too;
    ``crashes`` and ``aborts`` are the supervisor's counts.  ``faults``
    describes the installed plan, and ``contract`` is what the fault
    explorer may do at these sizes (explorable entries only).
    ``counters`` holds the numbers only some entries have, such as
    ``recover``'s restarts; a soak sums them per name.
    """

    seed: int
    outcome: str
    headline: str
    events: tuple[TraceEvent, ...]
    results: dict[Any, Any]
    killed: list[Any]
    time: float
    performances: int
    crashes: int = 0
    aborts: int = 0
    faults: list[str] = dataclasses.field(default_factory=list)
    contract: FaultContract | None = None
    counters: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def trace(self) -> str:
        """The formatted trace, rendered on demand."""
        return format_trace(self.events)


def check_residue(scheduler: Scheduler, seed: int,
                  instance: ScriptInstance) -> None:
    """Raise :class:`ChaosInvariantError` if a finished run left residue."""
    problems: list[str] = []
    if scheduler.board_size:
        problems.append(f"{scheduler.board_size} offer group(s) on the board")
    if scheduler.waiter_count:
        problems.append(f"{scheduler.waiter_count} stranded waiter(s)")
    if scheduler.pending_timer_count:
        problems.append(f"{scheduler.pending_timer_count} armed timer(s)")
    if scheduler.alias_owner:
        problems.append(f"alias registry retains "
                        f"{sorted(scheduler.alias_owner, key=repr)!r}")
    if instance.pool:
        problems.append(f"{instance.name}: {len(instance.pool)} pooled "
                        f"request(s) never resolved")
    for performance in instance.performances:
        if not performance.ended:
            problems.append(f"{performance.id} never ended")
    if problems:
        raise ChaosInvariantError(f"seed {seed}: " + "; ".join(problems),
                                  category="residue")


def run_checked(scheduler: Scheduler, seed: int,
                instance: ScriptInstance) -> RunResult:
    """Run to the end and raise on residue.  The result holds every
    process's outcome; callers drop the scheduler with it."""
    result = scheduler.run()
    check_residue(scheduler, seed, instance)
    return result


def finish(seed: int, result: RunResult, journal: Any, outcome: str,
           headline: str, **fields: Any) -> Run:
    """Close the run's hook and package what the run produced.

    ``fields`` are the :class:`Run` fields the result does not hold:
    ``performances``, and any of ``crashes``, ``aborts``, ``faults``,
    ``contract`` and ``counters``.
    """
    if journal is not None:
        journal.finish(outcome)
    return Run(seed=seed, outcome=outcome, headline=headline,
               events=result.tracer.snapshot(), results=result.results,
               killed=result.killed, time=result.time, **fields)


def catalogue() -> dict[str, Scenario]:
    """Every scenario by name, in the order the tools list them."""
    # The runner modules import this one for ``world`` and
    # ``FaultContract``, so they are resolved when it is called.
    from .faults.soak import (broadcast_plan, chatroom_plan, lock_plan,
                              run_chaos_broadcast, run_chaos_chatroom,
                              run_chaos_lock)
    from .obs.scenarios import (run_demo_broadcast, run_demo_election,
                                run_demo_lock)
    from .recovery.soak import recover_plan, run_recover_broadcast
    entries = (
        Scenario("demo-broadcast", run_demo_broadcast, size="n"),
        Scenario("demo-lock", run_demo_lock),
        Scenario("demo-election", run_demo_election, size="n"),
        Scenario("broadcast", run_chaos_broadcast, size="n",
                 plan=broadcast_plan, explorable=True),
        Scenario("lock", run_chaos_lock, size="clients", plan=lock_plan,
                 explorable=True),
        Scenario("chatroom", run_chaos_chatroom, size="n",
                 plan=chatroom_plan, explorable=True),
        Scenario("recover", run_recover_broadcast, size="n",
                 plan=recover_plan),
    )
    return {entry.name: entry for entry in entries}


def names(*, planned: bool = False,
          explorable: bool = False) -> tuple[str, ...]:
    """Catalogue names; ``planned`` keeps entries with a fault plan,
    ``explorable`` those the fault explorer accepts."""
    return tuple(name for name, entry in catalogue().items()
                 if (entry.plan is not None or not planned)
                 and (entry.explorable or not explorable))


def lookup(name: str, *, planned: bool = False, explorable: bool = False,
           error: type[Exception] = ChaosInvariantError) -> Scenario:
    """The entry called ``name``; raise ``error`` naming the entries that
    would do when it is unknown or lacks what the caller needs."""
    fits = names(planned=planned, explorable=explorable)
    entry = catalogue().get(name)
    if name in fits:
        return entry
    if entry is None:
        problem = f"unknown scenario {name!r}"
    elif explorable:
        problem = f"scenario {name!r} cannot be explored"
    else:
        problem = f"scenario {name!r} has no fault plan"
    raise error(f"{problem}; choose from {', '.join(fits)}")
