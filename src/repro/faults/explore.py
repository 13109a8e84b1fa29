"""Systematic fault-space exploration with counterexample shrinking.

The chaos soak (:mod:`repro.faults.soak`) samples fault schedules from a
seed — good at volume, blind to structure.  This module explores the
fault space *systematically*:

1. **Probe.**  Run the scenario once fault-free, journaled like every
   schedule, and read the injection points from the journal's frames
   (:func:`injection_points`): every rendezvous commit, enrollment step,
   recovery decision, and timer fire.

2. **Enumerate.**  Generate fault schedules anchored at those points —
   crash-at-point × process, partition windows with and without heal,
   timer-adjacent latency/drop windows, and
   :class:`~repro.faults.plan.JournalCorruptionPlan` variants — under a
   configurable budget.  The frontier is *stratified*: candidates are
   grouped by (family, target), shuffled with the exploration seed, and
   emitted round-robin, so every process and link gets early coverage
   instead of whichever family happens to enumerate first.  Past the
   singles, seeded depth-2/3 composites keep the frontier endless.

3. **Check.**  Every run is journaled, resumed, and judged by the four
   :data:`ORACLES`: ``residue`` (the kernel must end empty —
   :func:`~repro.scenarios.check_residue`), ``abort`` (critical-crash
   abort semantics), ``convergence`` (the run must terminate without
   kernel errors), and ``replay`` (the journal must resume
   byte-identically through :func:`~repro.persist.resume.resume`).

4. **Shrink.**  On the first failure, delta-debug the schedule down to a
   locally minimal counterexample: repeated ddmin passes over the fault
   events until a full single-event sweep removes nothing (1-minimality:
   every remaining event is necessary), or halving a corruption plan's
   intensity to its floor.  The result serializes to replayable JSON
   (``--replay-plan``) plus a one-command repro line.

Everything is deterministic: the same scenario, seed and budget produce
the identical schedule sequence, verdicts and counts — pinned by test.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
import random
import tempfile
from collections import Counter
from typing import Any, Iterator

from ..errors import ChaosInvariantError, FaultPlanError, ReproError
from ..persist.chaos import record_run
from ..persist.journal import DECISION, EVENT, read_journal
from ..persist.resume import resume
from ..reporting import kv_lines
from ..scenarios import FaultContract, Run, Scenario, lookup
from .plan import CORRUPTION_MODES, FaultPlan, JournalCorruptionPlan

#: Injection-point kinds.
POINT_COMMIT = "commit"
POINT_ENROLL = "enroll"
POINT_RECOVERY = "recovery"
POINT_TIMER = "timer"

#: The trace-event kinds whose journal frames are injection points.
_EVENT_POINTS = {"comm": POINT_COMMIT, "enroll_request": POINT_ENROLL,
                 "enroll_accept": POINT_ENROLL, "recovery": POINT_RECOVERY}

#: The oracles that judge every explored run, in report order.
ORACLES = ("residue", "abort", "convergence", "replay")


# ---------------------------------------------------------------------------
# Phase 1: reading injection points from a fault-free run's journal
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class InjectionPoint:
    """One instant the journal exposes for injection.

    ``subject`` names the acting process as its frame does (the ``repr``
    of its name), or a committed pair as ``sender -> receiver`` — strings,
    so points are hashable and totally ordered regardless of what process
    names a scenario uses.
    """

    time: float
    kind: str
    subject: str


def injection_points(frames: list[dict[str, Any]]) -> list[InjectionPoint]:
    """The distinct injection points of a journal's frames, sorted.

    Points come from comm, enrollment and recovery event frames and from
    timer decision frames, ordered by ``(time, kind, subject)`` so the
    anchor list never depends on set iteration order.
    """
    points = set()
    for frame in frames:
        if frame["k"] == EVENT and frame["kind"] in _EVENT_POINTS:
            kind = _EVENT_POINTS[frame["kind"]]
            subject = frame["p"]
            if kind == POINT_COMMIT:
                subject = f"{subject} -> {frame['d']['receiver']!r}"
        elif frame["k"] == DECISION and frame["kind"] == "timer":
            kind, subject = POINT_TIMER, frame["subject"]
        else:
            continue
        points.add(InjectionPoint(time=frame["t"], kind=kind,
                                  subject=subject))
    return sorted(points, key=lambda p: (p.time, p.kind, p.subject))


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
    """Single-fault candidates anchored at the base run's points,
    grouped by ``(family, target)`` for stratified frontier ordering."""
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
              rng: random.Random, budget: int) -> Iterator[FaultSchedule]:
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
    run: Run | None = None             # the scenario's run, if it ran
    error: ReproError | None = None    # error raised by the faulted run
    resume_report: Any = None          # ResumeReport from the replay leg
    resume_error: ReproError | None = None
    runs: int = 0                      # scenario executions this cost


def execute_schedule(scenario: Scenario, seed: int, schedule: FaultSchedule,
                     *, sizes: dict[str, Any], workdir: str,
                     tag: str) -> RunOutcome:
    """Run ``schedule`` against ``scenario`` at ``seed`` and ``sizes``.

    Plan schedules run the scenario journaled under the plan, followed by
    a full resume.  Corruption schedules journal a fault-free run,
    corrupt the file, and resume it: the attack targets the durability
    layer, not the virtual world.
    """
    outcome = RunOutcome(schedule=schedule)
    plan = schedule.plan if schedule.plan is not None else FaultPlan()
    path = os.path.join(workdir, f"{tag}.journal")
    outcome.runs = 1
    try:
        outcome.run = record_run(scenario.name, seed, path, options={
            "plan": plan.to_jsonable(), **sizes})
    except ReproError as err:
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
             contract: FaultContract) -> list[tuple[str, str]]:
    """Judge one execution under ``contract``; ``(oracle, detail)`` per
    violated oracle."""
    failures: list[tuple[str, str]] = []
    if outcome.error is not None:
        failures.append((_owner_of(outcome.error), str(outcome.error)))
    run = outcome.run
    if (run is not None and run.outcome == "aborted" and contract.critical
            and not any(name in contract.critical for name in run.killed)):
        failures.append(("abort",
                         f"aborted without a critical-process kill "
                         f"(killed: {run.killed!r})"))
    if outcome.resume_error is not None:
        failures.append(("replay", str(outcome.resume_error)))
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
           oracle: str, *, sizes: dict[str, Any], contract: FaultContract,
           workdir: str) -> tuple[FaultSchedule, str, int]:
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
                                   workdir=workdir, tag=f"shrink-{runs}")
        runs += outcome.runs
        for name, detail in evaluate(outcome, contract):
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
    points: Counter = dataclasses.field(default_factory=Counter)
    frames: int = 0
    schedules: int = 0
    runs: int = 0
    shrink_runs: int = 0
    families: Counter = dataclasses.field(default_factory=Counter)
    verdicts: Counter = dataclasses.field(default_factory=Counter)
    #: One line per examined schedule — the determinism pin's witness.
    schedule_log: list[str] = dataclasses.field(default_factory=list)
    counterexample: Counterexample | None = None
    base_trace: str = ""

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
            ("oracles", ", ".join(ORACLES)),
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


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------

def explore(scenario: str = "broadcast", seed: int = 0, budget: int = 100,
            workdir: str | None = None, **sizes: Any) -> ExploreReport:
    """Systematically explore ``scenario``'s fault space at ``seed``.

    Records a fault-free base run, then runs up to ``budget`` candidate
    schedules anchored at the injection points of its journal, stopping
    at the first oracle violation, shrunk to a locally minimal
    counterexample.  ``sizes`` reach the runner on every run — base,
    schedules, replays and shrinking — and the entry's
    :class:`~repro.scenarios.FaultContract` at those sizes, read before
    the base run, shapes the frontier.  ``workdir`` keeps the run
    journals (default: a temporary directory).  Deterministic: same
    arguments, same report.
    """
    sc = lookup(scenario, faulted=True)
    contract = sc.contract(**sizes)
    report = ExploreReport(scenario=scenario, seed=seed, budget=budget)
    with (tempfile.TemporaryDirectory(prefix="repro-explore-")
          if workdir is None else contextlib.nullcontext(workdir)) as workdir:
        path = os.path.join(workdir, "base.journal")
        base = record_run(scenario, seed, path, options={
            "plan": FaultPlan().to_jsonable(), **sizes})
        report.runs += 1
        report.base_trace = base.trace
        frames = read_journal(path).frames
        points = injection_points(frames)
        report.frames = len(frames) + 1  # header included
        report.points = Counter(point.kind for point in points)

        rng = random.Random(seed)
        frontier = _frontier(contract, points, rng, budget)
        for index, schedule in enumerate(itertools.islice(frontier, budget)):
            outcome = execute_schedule(sc, seed, schedule, sizes=sizes,
                                       workdir=workdir, tag=f"run-{index}")
            report.runs += outcome.runs
            report.schedules += 1
            report.families[schedule.family] += 1
            description = "; ".join(schedule.describe())
            failures = evaluate(outcome, contract)
            if not failures:
                report.verdicts["pass"] += 1
                report.schedule_log.append(f"#{index} {description} -> pass")
                continue
            report.verdicts["fail"] += 1
            oracle, detail = failures[0]
            report.schedule_log.append(
                f"#{index} {description} -> FAIL {oracle}")
            original_events = (len(schedule.plan)
                               if schedule.plan is not None else 0)
            minimized, shrunk_detail, shrink_runs = shrink(
                sc, seed, schedule, oracle, sizes=sizes, contract=contract,
                workdir=workdir)
            if shrunk_detail:
                detail = shrunk_detail
            report.shrink_runs = shrink_runs
            report.runs += shrink_runs
            report.counterexample = Counterexample(
                scenario=scenario, seed=seed, oracle=oracle, detail=detail,
                schedule=minimized, original_events=original_events,
                shrink_runs=shrink_runs, sizes=sizes)
            break
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


def check_saved_schedule(path: str) -> ReplayCheck:
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
        sc = lookup(scenario_name, faulted=True)
    except ChaosInvariantError as error:
        raise ChaosInvariantError(f"{path}: {error}") from None
    seed = data.get("seed", 0)
    sizes = data.get("sizes") or {}
    schedule = FaultSchedule.from_jsonable(data.get("schedule", {}))
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as workdir:
        outcome = execute_schedule(sc, seed, schedule, sizes=sizes,
                                   workdir=workdir, tag="replay")
        failures = evaluate(outcome, sc.contract(**sizes))
    return ReplayCheck(scenario=scenario_name, seed=seed, schedule=schedule,
                       failures=failures)
