"""The scenario catalogue: every workload the tools run, in one record each.

A *scenario* is a seeded run of script performances on a simulated
network.  Every tool that takes a scenario name — ``trace``, ``stats``,
``profile``, the ``chaos`` soak and its ``--verify``/``--describe-plan``/
``--explore``/``--replay-plan``/``--kill9`` modes, ``record_run`` and
``resume`` — resolves it here, so a new entry reaches all of them at once.

Each runner has one signature, ``run(seed, *, journal=None, **sizes)``
(plus ``plan=`` where the entry has a fault plan), builds its world with
:func:`world`, and calls ``journal.finish(outcome)`` once the run is over.
``journal`` is the one instrumentation hook: any object with
``attach(scheduler)``, ``finish(outcome)`` and ``barrier()``.  The journal
recorder and replay validator, the explorer's injection probe and the
metrics/profiler bundle of :func:`~repro.obs.scenarios.run_scenario` all
ride it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Hashable

from .errors import ChaosInvariantError
from .net import NetworkTransport, Topology
from .runtime import Scheduler


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

    def run(self, seed: int, **options: Any) -> Any:
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
