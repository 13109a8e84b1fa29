"""Instrumented scenario runs for the ``trace``, ``stats`` and ``profile``
commands, plus the three demo workloads of the scenario catalogue.

:func:`run_scenario` runs any :mod:`repro.scenarios` entry with a
:class:`~repro.obs.metrics.RuntimeMetrics` observer (and optionally a
profiler) riding the runner's ``journal`` hook, so an instrumented run is
the same run as a plain one.  The demo workloads reuse the script library
the demos and benchmarks exercise, on placement-aware networks (so spans
have real virtual-time width), with explicit, counter-free instance names
that keep same-seed exports byte-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Generator, Hashable

from ..net import complete, ring, star
from ..runtime import Scheduler
from ..scenarios import Run, finish, lookup, run_checked, world
from .metrics import RuntimeMetrics

Body = Generator[Any, Any, Any]

#: The demo-lock workload: ``(owner, role, item, op)`` per request, in
#: order (shared with ``python -m repro demo lock``).
LOCK_DEMO_OPS = (("alice", "reader", "x", "lock"),
                 ("bob", "writer", "x", "lock"),
                 ("alice", "reader", "x", "release"),
                 ("bob", "writer", "x", "lock"))


@dataclasses.dataclass(slots=True)
class ScenarioRun:
    """One instrumented scenario execution."""

    name: str
    seed: int
    scheduler: Scheduler
    metrics: RuntimeMetrics
    run: Run

    @property
    def headline(self) -> str:
        return self.run.headline


class _Instruments:
    """The metrics observer, plus an optional profiler beside it, as a
    run hook."""

    def __init__(self, profiler: Any = None):
        self.profiler = profiler
        self.scheduler: Scheduler | None = None
        self.metrics = RuntimeMetrics()

    def attach(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self.metrics.attach(scheduler, scheduler.transport)
        if self.profiler is not None:
            self.profiler.attach(scheduler)

    def finish(self, outcome: str) -> None:
        """Nothing to close: the observers hold everything they saw."""

    def barrier(self) -> None:
        """Nothing to make durable."""


def run_scenario(name: str, seed: int = 0, n: int = 5,
                 profiler: Any = None) -> ScenarioRun:
    """Run one catalogue entry with instrumentation attached.

    ``n`` sets the entry's sizing keyword (entries of fixed size ignore
    it).  ``profiler`` (a :class:`~repro.obs.profile.Profiler`) is
    attached beside the metrics when given; it observes only, so
    the run's trace is identical either way.
    """
    scenario = lookup(name, error=ValueError)
    hook = _Instruments(profiler)
    run = scenario.run(seed, journal=hook, **scenario.sized(n))
    return ScenarioRun(name, seed, hook.scheduler, hook.metrics, run)


def run_demo_broadcast(seed: int, *, n: int = 5,
                       journal: Any = None) -> Run:
    """Star broadcast, two performances, unit-latency star network."""
    from ..scripts import make_broadcast
    from ..scripts.broadcast import data_param_name, sender_role_name

    placement: dict[Hashable, Any] = {"T": "hub"}
    placement.update({("R", i): ("leaf", i) for i in range(1, n + 1)})
    scheduler, transport = world(seed, star(n), placement, journal)

    script = make_broadcast(n, "star")
    instance = script.instance(scheduler, name="demo_broadcast")
    sender_role = sender_role_name(script)
    param = data_param_name(script, sender_role)
    rounds = 2

    def transmitter() -> Body:
        for round_no in range(rounds):
            yield from instance.enroll(sender_role,
                                       **{param: ("demo", round_no)})

    def recipient(i: int) -> Body:
        for _ in range(rounds):
            yield from instance.enroll(("recipient", i))

    scheduler.spawn("T", transmitter())
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), recipient(i))
    result = run_checked(scheduler, seed, instance)
    return finish(seed, result, journal, "completed",
                  f"star broadcast to {n} recipients, {rounds} "
                  f"performances, {transport.stats.messages} messages, "
                  f"t={result.time:g}",
                  performances=instance.performance_count)


def run_demo_lock(seed: int, *, journal: Any = None) -> Run:
    """The Figure 5 lock-manager workload on a complete unit-latency net."""
    from ..scripts import ONE_READ_ALL_WRITE, ReplicatedLockService

    k = 3
    placement: dict[Hashable, Any] = {"driver": ("n", k)}
    placement.update({("manager-proc", index): ("n", index - 1)
                      for index in range(1, k + 1)})
    scheduler, _ = world(seed, complete(k + 1), placement, journal)

    service = ReplicatedLockService(scheduler, k=k,
                                    strategy=ONE_READ_ALL_WRITE,
                                    instance_name="demo_lock")
    service.expect_operations(len(LOCK_DEMO_OPS))
    service.spawn_managers()

    def driver() -> Body:
        statuses = []
        for owner, role, item, op in LOCK_DEMO_OPS:
            status = yield from service.request(role, owner, item, op)
            statuses.append(status)
        return statuses

    scheduler.spawn("driver", driver())
    result = run_checked(scheduler, seed, service.instance)
    statuses = ", ".join(result.results["driver"])
    return finish(seed, result, journal, "completed",
                  f"lock manager (k={k}): {len(LOCK_DEMO_OPS)} operations "
                  f"-> {statuses}; t={result.time:g}",
                  performances=service.instance.performance_count)


def run_demo_election(seed: int, *, n: int = 5,
                      journal: Any = None) -> Run:
    """Ring leader election over a unit-latency ring network."""
    from ..scripts import make_ring_election

    placement = {("S", i): ("n", i - 1) for i in range(1, n + 1)}
    scheduler, _ = world(seed, ring(n), placement, journal)

    # Seed-rotated ids: the winner's position varies with the seed while
    # the winning id stays max(ids), like the plain `demo election`.
    ids = list(range(1, n + 1))
    ids[seed % n], ids[-1] = ids[-1], ids[seed % n]
    script = make_ring_election(n)
    instance = script.instance(scheduler, name="demo_election")

    def station(i: int) -> Body:
        out = yield from instance.enroll(("station", i), my_id=ids[i - 1])
        return out["leader"]

    for i in range(1, n + 1):
        scheduler.spawn(("S", i), station(i))
    result = run_checked(scheduler, seed, instance)
    leaders = {result.results[("S", i)] for i in range(1, n + 1)}
    return finish(seed, result, journal, "completed",
                  f"ring election over ids {ids}: leader(s) "
                  f"{sorted(leaders)}, t={result.time:g}",
                  performances=instance.performance_count)
