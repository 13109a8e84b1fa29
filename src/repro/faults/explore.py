"""Systematic fault-space exploration with counterexample shrinking.

The chaos soak (:mod:`repro.faults.soak`) samples fault schedules from a
seed — good at volume, blind to structure.  This module explores the
fault space *systematically*:

1. **Probe.**  Run the scenario once fault-free with an
   :class:`InjectionProbe` attached (the same duck-typed ``journal``
   protocol the durable recorder uses), enumerating injection points
   from the instrumentation stream: every rendezvous commit, enrollment
   step, recovery decision, and timer fire — the exact frame boundaries
   the journal would record.

2. **Enumerate.**  Generate fault schedules anchored at those points —
   crash-at-point × process, partition windows with and without heal,
   timer-adjacent latency/drop windows, and
   :class:`~repro.faults.plan.JournalCorruptionPlan` variants — under a
   configurable budget.  The frontier is *stratified*: candidates are
   grouped by (family, target), shuffled with the exploration seed, and
   emitted round-robin, so every process and link gets early coverage
   instead of whichever family happens to enumerate first.  Past the
   singles, seeded depth-2/3 composites keep the frontier endless.

3. **Check.**  Every run is judged by a pluggable oracle set: ``residue``
   (the kernel must end empty — :func:`~repro.faults.soak.check_residue`),
   ``abort`` (critical-crash abort semantics), ``convergence`` (the run
   must terminate without kernel errors), and ``replay`` (a journaled run
   must resume byte-identically through
   :class:`~repro.persist.resume.ReplayValidator`).  An error no selected
   oracle owns still fails the run — attributed to ``convergence`` — so
   deselecting oracles never turns a crash into a pass.

4. **Shrink.**  On the first failure, delta-debug the schedule down to a
   locally minimal counterexample: repeated ddmin passes over the fault
   events until a full single-event sweep removes nothing (1-minimality:
   every remaining event is necessary), or halving a corruption plan's
   intensity to its floor.  The result serializes to replayable JSON
   (``--replay-plan``) plus a one-command repro line.

Everything is deterministic: the same scenario, seed and budget produce
the identical schedule sequence, verdicts and coverage counters — pinned
by test.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import tempfile
from collections import Counter
from typing import Any, Hashable, Iterator

from ..errors import ChaosInvariantError, FaultPlanError, ReproError
from ..obs.metrics import MetricsRegistry
from ..persist.record import SNAPSHOT_EVERY, JournalRecorder
from ..persist.resume import resume
from ..runtime import EventKind, Scheduler, Sink, TeeSink
from ..scenarios import FaultContract, Scenario, lookup
from .plan import CORRUPTION_MODES, FaultPlan, JournalCorruptionPlan
from .reporting import kv_lines

#: Injection-point kinds, in the order the probe reports them.
POINT_COMMIT = "commit"
POINT_ENROLL = "enroll"
POINT_RECOVERY = "recovery"
POINT_TIMER = "timer"

#: Oracle names accepted by :func:`explore` (and the ``--oracle`` flag).
DEFAULT_ORACLES = ("residue", "abort", "convergence", "replay")


# ---------------------------------------------------------------------------
# Phase 1: probing a fault-free run for injection points
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class InjectionPoint:
    """One instant the instrumentation stream exposes for injection.

    ``subject`` is the ``repr`` of the acting process (or committed pair)
    — repr, not the object, so points are hashable and totally ordered
    regardless of what process names a scenario uses.
    """

    time: float
    kind: str
    subject: str


class InjectionProbe(Sink):
    """Instrumentation sink that enumerates a run's injection points.

    Duck-types the scenario runners' ``journal`` protocol
    (``attach(scheduler)`` / ``finish(outcome)``), so it attaches at the
    exact spot the durable recorder would — the probe sees the same
    stream the journal records, and its ``frames`` estimate counts the
    frame boundaries that stream would produce (header and end frames
    included, one snapshot per :data:`~repro.persist.record.SNAPSHOT_EVERY`
    commits).
    """

    def __init__(self) -> None:
        self.points: list[InjectionPoint] = []
        self._seen: set[tuple[float, str, str]] = set()
        self.frames = 2  # header + end
        self.commits = 0
        self.outcome: str | None = None
        self.scheduler: Scheduler | None = None

    def attach(self, scheduler: Scheduler) -> "InjectionProbe":
        if self.scheduler is not None:
            raise FaultPlanError("this injection probe is already attached")
        self.scheduler = scheduler
        scheduler.sink = self if not scheduler.sink \
            else TeeSink(scheduler.sink, self)
        scheduler.tracer.add_listener(self.on_event)
        return self

    def _note(self, kind: str, time: float, subject: Any) -> None:
        key = (time, kind, repr(subject))
        if key not in self._seen:
            self._seen.add(key)
            self.points.append(InjectionPoint(time=time, kind=kind,
                                              subject=key[2]))

    def on_commit(self, time: float, sender: Hashable, receiver: Hashable,
                  board_size: int, waiter_count: int) -> None:
        self.commits += 1
        self._note(POINT_COMMIT, time, (sender, receiver))

    def on_decision(self, time: float, kind: str, subject: Hashable,
                    payload: Any) -> None:
        self.frames += 1
        if kind == "timer":
            self._note(POINT_TIMER, time, subject)

    def on_event(self, event: Any) -> None:
        self.frames += 1
        if event.kind in (EventKind.ENROLL_REQUEST, EventKind.ENROLL_ACCEPT):
            self._note(POINT_ENROLL, event.time, event.process)
        elif event.kind is EventKind.RECOVERY:
            self._note(POINT_RECOVERY, event.time, event.process)

    def finish(self, outcome: str) -> None:
        self.outcome = outcome
        self.frames += self.commits // SNAPSHOT_EVERY
        self.points.sort(key=lambda p: (p.time, p.kind, p.subject))


# ---------------------------------------------------------------------------
# Fault schedules: the unit of exploration
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """One candidate: a fault plan *or* a journal corruption, never both."""

    family: str
    plan: FaultPlan | None = None
    corruption: JournalCorruptionPlan | None = None

    def describe(self) -> list[str]:
        if self.corruption is not None:
            return [self.corruption.describe()]
        return self.plan.describe() if self.plan is not None else []

    def to_jsonable(self) -> dict[str, Any]:
        data: dict[str, Any] = {"family": self.family}
        if self.plan is not None:
            data["plan"] = self.plan.to_jsonable()
        if self.corruption is not None:
            data["corruption"] = self.corruption.to_jsonable()
        return data

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> "FaultSchedule":
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault schedule must be a mapping, got {data!r}")
        plan = data.get("plan")
        corruption = data.get("corruption")
        return cls(
            family=data.get("family", "unknown"),
            plan=FaultPlan.from_jsonable(plan) if plan is not None else None,
            corruption=(JournalCorruptionPlan.from_jsonable(corruption)
                        if corruption is not None else None))


def _candidate_singles(contract: FaultContract,
                       points: list[InjectionPoint]
                       ) -> dict[tuple[str, str], list[FaultSchedule]]:
    """Single-fault candidates anchored at the probe's points, grouped
    by ``(family, target)`` for stratified frontier ordering."""
    times = sorted({p.time for p in points})
    timer_times = sorted({p.time for p in points
                          if p.kind == POINT_TIMER and p.time > 0})
    groups: dict[tuple[str, str], list[FaultSchedule]] = {}

    def add(family: str, key: str, plan: FaultPlan) -> None:
        groups.setdefault((family, key), []).append(
            FaultSchedule(family=family, plan=plan))

    for process in contract.processes:
        floor = contract.crash_after.get(process, 0.0)
        for t in times:
            if t > floor:
                add("crash", repr(process), FaultPlan().crash(t, process))
    spans = (1.0, max(2.5, contract.horizon / 8.0))
    for a, b in contract.links:
        key = repr((a, b))
        for t in times:
            if t <= 0:
                continue
            for span in spans:
                add("partition", key,
                    FaultPlan().partition(t, a, b,
                                          heal_at=round(t + span, 3)))
            if not contract.heal_required:
                add("partition", key, FaultPlan().partition(t, a, b))
    if contract.transport_faults:
        for t in timer_times:
            add("slow", "window",
                FaultPlan().slow(t, 4.0, until=round(t + 2.0, 3)))
            add("drop", "window",
                FaultPlan().drop(t, 2, until=round(t + 2.0, 3)))
    return groups


def _frontier(contract: FaultContract, points: list[InjectionPoint],
              rng: random.Random, budget: int,
              include_corruption: bool) -> Iterator[FaultSchedule]:
    """Seeded, stratified, endless candidate stream.

    Singles first — round-robin over the shuffled (family, target)
    groups, capped at half the budget so corruption and composite
    schedules are always reached — then the corruption grid, then
    endless seeded depth-2/3 composites drawn from the singles pool.
    """
    groups = _candidate_singles(contract, points)
    buckets: list[list[FaultSchedule]] = []
    for key in sorted(groups):
        bucket = list(groups[key])
        rng.shuffle(bucket)
        buckets.append(bucket)
    rng.shuffle(buckets)
    pool = [schedule for bucket in buckets for schedule in bucket]
    single_cap = max(budget // 2, 24)
    emitted = 0
    queues = [list(bucket) for bucket in buckets]
    while emitted < single_cap and any(queues):
        for queue in queues:
            if queue and emitted < single_cap:
                yield queue.pop(0)
                emitted += 1
    if include_corruption:
        for mode in CORRUPTION_MODES:
            for intensity in (1, 8, 32):
                yield FaultSchedule(
                    family="corruption",
                    corruption=JournalCorruptionPlan(
                        seed=rng.randrange(1 << 30), mode=mode,
                        intensity=intensity))
    if not pool:
        return
    while True:
        depth = 2 + (rng.random() < 0.4)
        chosen = [pool[rng.randrange(len(pool))] for _ in range(depth)]
        events = [event for schedule in chosen
                  for event in schedule.plan.events]
        yield FaultSchedule(family="composite", plan=FaultPlan(events))


# ---------------------------------------------------------------------------
# Phase 3: executing one schedule and judging it
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class RunOutcome:
    """Everything one schedule execution produced, for the oracles."""

    schedule: FaultSchedule
    run: Any = None                    # the scenario's ChaosRun, if it ran
    error: ReproError | None = None    # error raised by the faulted run
    resume_report: Any = None          # ResumeReport from the replay leg
    resume_error: ReproError | None = None
    runs: int = 0                      # scenario executions this cost


def execute_schedule(scenario: Scenario, seed: int, schedule: FaultSchedule,
                     *, sizes: dict[str, Any], replay: bool,
                     workdir: str | None, tag: str) -> RunOutcome:
    """Run ``schedule`` against ``scenario`` at ``seed`` and ``sizes``.

    Plan schedules run the scenario under the plan — journaled when the
    replay oracle is active, followed by a full resume.  Corruption
    schedules journal a fault-free run, corrupt the file, and resume it:
    the attack targets the durability layer, not the virtual world.
    """
    outcome = RunOutcome(schedule=schedule)
    plan = schedule.plan if schedule.plan is not None else FaultPlan()
    if not replay and schedule.corruption is None:
        outcome.runs = 1
        try:
            outcome.run = scenario.run(seed, plan=plan, **sizes)
        except ReproError as err:
            outcome.error = err
        return outcome
    path = os.path.join(workdir, f"{tag}.journal")
    recorder = JournalRecorder(path, seed=seed, scenario=scenario.name,
                               options={"plan": plan.to_jsonable(), **sizes})
    outcome.runs = 1
    try:
        outcome.run = scenario.run(seed, plan=plan, journal=recorder,
                                   **sizes)
    except ReproError as err:
        recorder.close()
        outcome.error = err
        return outcome
    if schedule.corruption is not None:
        schedule.corruption.apply(path)
    try:
        outcome.resume_report = resume(path)
    except ReproError as err:
        outcome.resume_error = err
    outcome.runs += 1
    return outcome


def _owner_of(error: ReproError) -> str:
    """Which oracle owns ``error``: the failure's attribution."""
    category = getattr(error, "category", None)
    if category == "residue":
        return "residue"
    if category == "semantics":
        return "abort"
    return "convergence"


def evaluate(outcome: RunOutcome,
             oracles: tuple[str, ...]) -> list[tuple[str, str]]:
    """Judge one execution; ``(oracle, detail)`` per violated oracle.

    Errors raised by the faulted run *always* fail it: if the owning
    oracle is deselected the failure is attributed to ``convergence``
    instead — deselecting oracles narrows attribution, never safety.
    """
    failures: list[tuple[str, str]] = []
    if outcome.error is not None:
        owner = _owner_of(outcome.error)
        if owner not in oracles:
            owner = "convergence"
        failures.append((owner, str(outcome.error)))
    run = outcome.run
    if ("abort" in oracles and run is not None
            and run.outcome == "aborted" and run.contract.critical
            and not any(name in run.contract.critical
                        for name in run.killed)):
        failures.append(("abort",
                         f"aborted without a critical-process kill "
                         f"(killed: {run.killed!r})"))
    if "replay" in oracles or outcome.resume_error is not None:
        if outcome.resume_error is not None:
            failures.append(("replay" if "replay" in oracles
                             else "convergence",
                             str(outcome.resume_error)))
        elif (outcome.resume_report is not None and run is not None
                and outcome.resume_report.outcome != run.outcome):
            failures.append(
                ("replay", f"resume outcome "
                           f"{outcome.resume_report.outcome!r} != recorded "
                           f"{run.outcome!r}"))
    return failures


# ---------------------------------------------------------------------------
# Phase 4: delta-debugging shrink
# ---------------------------------------------------------------------------

def shrink(scenario: Scenario, seed: int, schedule: FaultSchedule,
           oracle: str, oracles: tuple[str, ...], *, sizes: dict[str, Any],
           replay: bool, workdir: str | None
           ) -> tuple[FaultSchedule, str, int]:
    """Minimize ``schedule`` while the same oracle keeps failing.

    Plan schedules go through repeated ddmin passes (chunk sizes from
    ``len // 2`` down to 1); the loop only stops after a full
    single-event sweep removes nothing, so the result is 1-minimal:
    dropping *any* remaining event makes the failure disappear.
    Corruption schedules shrink by halving intensity.  Returns the
    minimized schedule, the detail of its failure, and the number of
    scenario executions spent.
    """
    runs = 0
    last_detail = ""

    def still_fails(candidate: FaultSchedule) -> bool:
        nonlocal runs, last_detail
        outcome = execute_schedule(scenario, seed, candidate, sizes=sizes,
                                   replay=replay, workdir=workdir,
                                   tag=f"shrink-{runs}")
        runs += outcome.runs
        for name, detail in evaluate(outcome, oracles):
            if name == oracle:
                last_detail = detail
                return True
        return False

    if schedule.corruption is not None:
        current = schedule.corruption
        while current.intensity > 1:
            candidate = dataclasses.replace(current,
                                            intensity=current.intensity // 2)
            if not still_fails(dataclasses.replace(
                    schedule, corruption=candidate)):
                break
            current = candidate
        return (dataclasses.replace(schedule, corruption=current),
                last_detail, runs)

    events = list(schedule.plan.events) if schedule.plan is not None else []

    def make(subset: list) -> FaultSchedule:
        return dataclasses.replace(schedule, plan=FaultPlan(subset))

    changed = True
    while changed and len(events) > 1:
        changed = False
        size = len(events) // 2
        while size >= 1:
            index = 0
            while index < len(events) and len(events) > 1:
                candidate = events[:index] + events[index + size:]
                if candidate and still_fails(make(candidate)):
                    events = candidate
                    changed = True
                else:
                    index += size
            size //= 2
    return make(events), last_detail, runs


# ---------------------------------------------------------------------------
# Results: counterexamples and the exploration report
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class Counterexample:
    """A minimized failing schedule, replayable from its JSON form."""

    scenario: str
    seed: int
    oracle: str
    detail: str
    schedule: FaultSchedule
    original_events: int
    shrink_runs: int
    sizes: dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_jsonable(self) -> dict[str, Any]:
        return {"scenario": self.scenario, "seed": self.seed,
                "sizes": self.sizes,
                "oracle": self.oracle, "detail": self.detail,
                "schedule": self.schedule.to_jsonable(),
                "original_events": self.original_events,
                "shrink_runs": self.shrink_runs}

    def repro_command(self, path: str) -> str:
        """The one command that replays this exact failure."""
        return (f"PYTHONPATH=src python -m repro chaos {self.scenario} "
                f"--explore --replay-plan {path}")


@dataclasses.dataclass(slots=True)
class ExploreReport:
    """Everything one exploration established (deterministic per seed)."""

    scenario: str
    seed: int
    budget: int
    oracles: tuple[str, ...]
    points: Counter = dataclasses.field(default_factory=Counter)
    frames: int = 0
    schedules: int = 0
    runs: int = 0
    shrink_runs: int = 0
    families: Counter = dataclasses.field(default_factory=Counter)
    verdicts: Counter = dataclasses.field(default_factory=Counter)
    oracle_failures: Counter = dataclasses.field(default_factory=Counter)
    #: One line per examined schedule — the determinism pin's witness.
    schedule_log: list[str] = dataclasses.field(default_factory=list)
    counterexample: Counterexample | None = None
    base_trace: str = ""
    metrics: MetricsRegistry | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def lines(self) -> list[str]:
        """Human-readable summary for the CLI."""
        point_total = sum(self.points.values())
        point_share = ", ".join(f"{kind}: {count}" for kind, count
                                in sorted(self.points.items()))
        family_share = ", ".join(f"{name}: {count}" for name, count
                                 in sorted(self.families.items()))
        rows: list[tuple[str, Any]] = [
            ("oracles", ", ".join(self.oracles)),
            ("points", f"{point_total} ({point_share})"),
            ("frames", self.frames),
            ("schedules", f"{self.schedules} ({family_share})"),
            ("runs", f"{self.runs} ({self.shrink_runs} during shrink)"),
            ("verdicts", f"pass: {self.verdicts.get('pass', 0)}, "
                         f"fail: {self.verdicts.get('fail', 0)}"),
        ]
        if self.counterexample is None:
            rows.append(("result", "every schedule passed every oracle"))
        else:
            ce = self.counterexample
            minimized = "; ".join(ce.schedule.describe())
            rows.append(("failure", f"{ce.oracle}: {ce.detail}"))
            rows.append(("minimized",
                         f"{len(ce.schedule.plan or ())} event(s) "
                         f"(from {ce.original_events}): {minimized}"
                         if ce.schedule.plan is not None else minimized))
        return kv_lines(
            f"fault exploration: {self.scenario}, budget {self.budget} "
            f"(seed {self.seed})", rows)


def record_exploration(report: ExploreReport,
                       registry: MetricsRegistry) -> MetricsRegistry:
    """Publish a report's coverage counters into ``registry``."""
    for kind, count in sorted(report.points.items()):
        registry.counter("explore_points_total", label=kind).inc(count)
    registry.counter("explore_frames_total").inc(report.frames)
    for family, count in sorted(report.families.items()):
        registry.counter("explore_schedules_total", label=family).inc(count)
    registry.counter("explore_runs_total").inc(report.runs)
    registry.counter("explore_shrink_runs_total").inc(report.shrink_runs)
    for verdict, count in sorted(report.verdicts.items()):
        registry.counter("explore_verdicts_total", label=verdict).inc(count)
    for oracle, count in sorted(report.oracle_failures.items()):
        registry.counter("explore_oracle_failures_total",
                         label=oracle).inc(count)
    return registry


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------

def explore(scenario: str = "broadcast", seed: int = 0, budget: int = 100,
            oracles: tuple[str, ...] | None = None, minimize: bool = True,
            workdir: str | None = None,
            metrics: MetricsRegistry | None = None,
            **sizes: Any) -> ExploreReport:
    """Systematically explore ``scenario``'s fault space at ``seed``.

    Runs the probe, then up to ``budget`` candidate schedules, stopping
    at the first oracle violation (shrunk to a locally minimal
    counterexample when ``minimize``).  ``sizes`` reach the runner on
    every run — probe, schedules, replays and shrinking — and the probe
    run's :class:`~repro.scenarios.FaultContract` shapes the frontier.
    Deterministic: same arguments, same report.
    """
    sc = lookup(scenario, explorable=True)
    oracle_names = tuple(oracles) if oracles else DEFAULT_ORACLES
    for name in oracle_names:
        if name not in DEFAULT_ORACLES:
            raise ChaosInvariantError(
                f"unknown oracle {name!r}; choose from {DEFAULT_ORACLES}")
    replay = "replay" in oracle_names
    report = ExploreReport(scenario=scenario, seed=seed, budget=budget,
                           oracles=oracle_names)

    probe = InjectionProbe()
    base = sc.run(seed, plan=FaultPlan(), journal=probe, **sizes)
    report.runs += 1
    report.base_trace = base.trace
    report.frames = probe.frames
    report.points = Counter(point.kind for point in probe.points)

    rng = random.Random(seed)
    frontier = _frontier(base.contract, probe.points, rng, budget,
                         include_corruption=replay)
    cleanup: tempfile.TemporaryDirectory | None = None
    if replay and workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-explore-")
        workdir = cleanup.name
    try:
        for index, schedule in enumerate(itertools.islice(frontier, budget)):
            outcome = execute_schedule(sc, seed, schedule, sizes=sizes,
                                       replay=replay, workdir=workdir,
                                       tag=f"run-{index}")
            report.runs += outcome.runs
            report.schedules += 1
            report.families[schedule.family] += 1
            description = "; ".join(schedule.describe())
            failures = evaluate(outcome, oracle_names)
            if not failures:
                report.verdicts["pass"] += 1
                report.schedule_log.append(f"#{index} {description} -> pass")
                continue
            report.verdicts["fail"] += 1
            oracle, detail = failures[0]
            report.oracle_failures[oracle] += 1
            report.schedule_log.append(
                f"#{index} {description} -> FAIL {oracle}")
            original_events = (len(schedule.plan)
                               if schedule.plan is not None else 0)
            minimized, shrink_runs = schedule, 0
            if minimize:
                minimized, shrunk_detail, shrink_runs = shrink(
                    sc, seed, schedule, oracle, oracle_names, sizes=sizes,
                    replay=replay, workdir=workdir)
                if shrunk_detail:
                    detail = shrunk_detail
            report.shrink_runs = shrink_runs
            report.runs += shrink_runs
            report.counterexample = Counterexample(
                scenario=scenario, seed=seed, oracle=oracle, detail=detail,
                schedule=minimized, original_events=original_events,
                shrink_runs=shrink_runs, sizes=sizes)
            break
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    report.metrics = record_exploration(
        report, metrics if metrics is not None else MetricsRegistry())
    return report


# ---------------------------------------------------------------------------
# Replaying a saved counterexample
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class ReplayCheck:
    """Result of re-executing a saved counterexample file."""

    scenario: str
    seed: int
    schedule: FaultSchedule
    failures: list[tuple[str, str]]

    @property
    def reproduced(self) -> bool:
        return bool(self.failures)

    def lines(self) -> list[str]:
        rows: list[tuple[str, Any]] = [
            ("schedule", "; ".join(self.schedule.describe()) or "(empty)"),
        ]
        if self.failures:
            for oracle, detail in self.failures:
                rows.append(("failure", f"{oracle}: {detail}"))
        else:
            rows.append(("result", "schedule passed every oracle"))
        return kv_lines(
            f"replay: {self.scenario} seed {self.seed}", rows)


def check_saved_schedule(path: str,
                         oracles: tuple[str, ...] | None = None
                         ) -> ReplayCheck:
    """Re-execute the counterexample JSON at ``path`` (``--replay-plan``).

    Accepts the file :func:`explore` writes; returns the oracle verdicts
    of the re-execution, so a fixed bug shows up as ``reproduced`` being
    False.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ChaosInvariantError(f"{path}: not a counterexample file")
    scenario_name = data.get("scenario")
    try:
        sc = lookup(scenario_name, explorable=True)
    except ChaosInvariantError as error:
        raise ChaosInvariantError(f"{path}: {error}") from None
    seed = data.get("seed", 0)
    sizes = data.get("sizes") or {}
    schedule = FaultSchedule.from_jsonable(data.get("schedule", {}))
    oracle_names = tuple(oracles) if oracles else DEFAULT_ORACLES
    replay = ("replay" in oracle_names
              or schedule.corruption is not None)
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as workdir:
        outcome = execute_schedule(sc, seed, schedule, sizes=sizes,
                                   replay=replay, workdir=workdir,
                                   tag="replay")
        failures = evaluate(outcome, oracle_names)
    return ReplayCheck(scenario=scenario_name, seed=seed, schedule=schedule,
                       failures=failures)
