"""The benchmark's three closed-loop script workloads.

Each workload runs in *batches*.  A batch is one set-up (script, instance,
processes, journal) followed by one ``Scheduler.run`` in which every
process enrolls again only after its previous enrollment returned, for a
fixed number of performances.  The process bodies are the benchmark's
own: they time each ``enroll`` call and keep its output, which is checked
after the run, outside the timed region.

* ``star-delayed`` — Figure 3 star broadcast, delayed initiation and
  termination: every enrollment re-runs ``solve`` over the whole pool.
* ``pipeline-immediate`` — Figure 4 pipeline broadcast, immediate
  initiation and termination: requests join through
  ``consistent_extension`` and wait on polled ``WaitUntil`` predicates.
* ``fig5-locks`` — Figure 5 compiled by the Section III interpreter, with
  a lazy journal: many tiny performances, a pool of at most five.

The inputs come from the benchmark seed and the batch index: the broadcast
payloads, and on Figure 5 the client operation sequence and think times.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any, Callable

from repro.errors import VerificationError
from repro.lang import compile_script
from repro.lang.figures import FIGURE5_DATABASE
from repro.persist.record import JournalRecorder, event_record
from repro.runtime import Delay, ProcessState, Scheduler
from repro.scripts.broadcast import make_broadcast
from repro.verification.properties import check_all

#: Where traces and temporary journals go (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "out"

STATUSES = frozenset({"granted", "denied", "released"})


@dataclasses.dataclass
class Prepared:
    """A batch that is set up and ready to run."""

    scheduler: Scheduler
    instance: Any
    calls: list[tuple[Any, int, int, Any]]   # (process, start, end, output)
    started: list[int]                       # enroll calls begun, one cell
    check: Callable[[], list[str]]           # output check -> problems
    journal: JournalRecorder | None = None
    journal_dir: str | None = None
    compile_s: float = 0.0


@dataclasses.dataclass
class Batch:
    """What one batch measured; every time is wall clock."""

    performances: int
    run_s: float
    setup_s: float
    compile_s: float
    enroll_ns: list[int]
    attempted: int
    failed: int
    problems: list[str]
    trace: list[str] | None = None
    journal_frames: int = 0
    journal_bytes: int = 0
    close_s: float = 0.0


def _enrolling(calls: list, started: list[int], name: Any,
               enroll: Callable[[], Any]):
    """Run one timed enroll call as part of a process body."""
    started[0] += 1
    start = perf_counter_ns()
    output = yield from enroll()
    calls.append((name, start, perf_counter_ns(), output))
    return output


# ---------------------------------------------------------------------------
# Broadcasts (Figures 3 and 4)
# ---------------------------------------------------------------------------

def _prepare_broadcast(strategy: str, n: int, performances: int,
                       rng: random.Random, scheduler_seed: int,
                       wrap: Callable[[Any], None] | None) -> Prepared:
    payloads = [f"v{rng.getrandbits(48):012x}" for _ in range(performances)]
    script = make_broadcast(n, strategy)
    if wrap is not None:
        wrap(script)
    scheduler = Scheduler(seed=scheduler_seed)
    instance = script.instance(scheduler, name=f"{strategy}-broadcast")
    calls: list = []
    started = [0]

    def sender():
        for payload in payloads:
            yield from _enrolling(calls, started, "T", lambda p=payload:
                                  instance.enroll("sender", data=p))

    def recipient(i: int):
        for _ in payloads:
            yield from _enrolling(calls, started, ("R", i), lambda:
                                  instance.enroll(("recipient", i)))

    scheduler.spawn("T", sender())
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), recipient(i))

    def check() -> list[str]:
        problems = []
        rounds: dict[Any, int] = {}
        for process, _, _, output in calls:
            r = rounds.get(process, 0)
            rounds[process] = r + 1
            expected = {} if process == "T" else {"data": payloads[r]}
            if r >= len(payloads) or output != expected:
                problems.append(f"{process!r} round {r}: got {output!r}")
        if len(calls) != (n + 1) * performances:
            problems.append(f"{len(calls)} enroll calls returned, expected "
                            f"{(n + 1) * performances}")
        return problems

    return Prepared(scheduler, instance, calls, started, check)


# ---------------------------------------------------------------------------
# Figure 5 through the Section III interpreter, journaled
# ---------------------------------------------------------------------------

def _prepare_fig5(ops: int, rng: random.Random, scheduler_seed: int,
                  wrap: Callable[[Any], None] | None) -> Prepared:
    plans = {}
    for role in ("reader", "writer"):
        plan = []
        for k in range(0, ops, 2):
            item = f"item-{rng.randrange(4)}"
            for request in ("lock", "release")[:ops - k]:
                think = rng.choice((0, 0, 0, 1, 2))
                plan.append((request, item, think))
        plans[role] = plan
    compile_start = perf_counter()
    script = compile_script(FIGURE5_DATABASE)
    compile_s = perf_counter() - compile_start
    if wrap is not None:
        wrap(script)
    scheduler = Scheduler(seed=scheduler_seed)
    instance = script.instance(scheduler, name="fig5")
    OUT_DIR.mkdir(exist_ok=True)
    journal_dir = tempfile.mkdtemp(prefix="journal-", dir=OUT_DIR)
    journal = JournalRecorder(Path(journal_dir) / "fig5.wal",
                              seed=scheduler_seed, scenario="fig5-locks")
    journal.attach(scheduler)
    calls: list = []
    started = [0]
    clients_left = [len(plans)]

    def manager(i: int):
        while True:
            output = yield from _enrolling(
                calls, started, ("M", i), lambda: instance.enroll(
                    ("manager", i),
                    withdraw_when=lambda: clients_left[0] == 0))
            if output is None:
                return

    def client(role: str):
        for request, item, think in plans[role]:
            if think:
                yield Delay(think)
            yield from _enrolling(
                calls, started, role, lambda: instance.enroll(
                    role, id=role, data=item, request=request))
        clients_left[0] -= 1

    for i in (1, 2, 3):
        scheduler.spawn(("M", i), manager(i))
    for role in plans:
        scheduler.spawn(role, client(role))

    def check() -> list[str]:
        problems = []
        done = {role: 0 for role in plans}
        served = {i: 0 for i in (1, 2, 3)}
        for process, _, _, output in calls:
            if process in plans:
                request = plans[process][done[process]][0]
                done[process] += 1
                status = (output or {}).get("status")
                if status not in STATUSES or (
                        (request == "release") != (status == "released")):
                    problems.append(f"{process} {request}: status {status!r}")
            elif output is not None:
                served[process[1]] += 1
                if output != {}:
                    problems.append(f"{process!r}: got {output!r}")
        for role, plan in plans.items():
            if done[role] != len(plan):
                problems.append(f"{role}: {done[role]} of {len(plan)} "
                                f"operations returned")
        for i, count in served.items():
            if count != instance.performance_count:
                problems.append(f"manager {i} served {count} of "
                                f"{instance.performance_count} performances")
        return problems

    return Prepared(scheduler, instance, calls, started, check,
                    journal=journal, journal_dir=journal_dir,
                    compile_s=compile_s)


# ---------------------------------------------------------------------------
# Workload table and the batch runner
# ---------------------------------------------------------------------------

#: A workload sets up one batch: ``prepare(rng, scheduler_seed, wrap)``,
#: where ``wrap``, when given, instruments the script before use.
Workload = Callable[[random.Random, int, Any], Prepared]


def workload_table(n: int = 300, performances: int | None = None,
                   ops: int = 200) -> dict[str, Workload]:
    """The three workloads; sizes are parameters so tests can shrink them."""
    def star(rng, seed, wrap):
        return _prepare_broadcast("star", n, performances or 4, rng, seed,
                                  wrap)

    def pipeline(rng, seed, wrap):
        return _prepare_broadcast("pipeline", n, performances or 4, rng,
                                  seed, wrap)

    def fig5(rng, seed, wrap):
        return _prepare_fig5(ops, rng, seed, wrap)

    return {"star-delayed": star, "pipeline-immediate": pipeline,
            "fig5-locks": fig5}


def serialize_trace(scheduler: Scheduler) -> list[str]:
    """The trace as canonical journal-frame JSON, one line per event."""
    return [json.dumps(event_record(e), sort_keys=True)
            for e in scheduler.tracer.events]


def leftovers(prepared: Prepared) -> list[str]:
    """Processes, aliases, offers, waiters or requests still present."""
    scheduler = prepared.scheduler
    problems = []
    running = [name for name, p in scheduler.processes.items()
               if p.state is not ProcessState.DONE]
    if running:
        problems.append(f"processes not done: {running[:5]!r}")
    if scheduler.alias_owner:
        problems.append(f"aliases left: {list(scheduler.alias_owner)[:5]!r}")
    if scheduler.board_size or scheduler.waiter_count:
        problems.append(f"{scheduler.board_size} offers and "
                        f"{scheduler.waiter_count} waiters left")
    if prepared.instance.pending_count:
        problems.append(f"{prepared.instance.pending_count} requests pooled")
    return problems


def run_batch(prepare: Workload, seed: int, index: int, probe: Any = None,
              keep_trace: bool = False) -> Batch:
    """Set up, run and check batch ``index``; ``probe`` traces it if given.

    The inputs come from ``seed`` and ``index``.  The scheduler's own seed
    is the batch index alone, so every run of the benchmark resolves the
    engine's nondeterminism through the same sequence of schedules and
    only the inputs change with ``seed``.
    """
    rng = random.Random(seed * 1_000_003 + index)
    setup_start = perf_counter()
    prepared = prepare(rng, index, probe.wrap_script if probe else None)
    setup_s = perf_counter() - setup_start
    scheduler = prepared.scheduler
    problems: list[str] = []
    raised = False
    close_s = 0.0
    run_start = perf_counter()
    try:
        if probe is None:
            scheduler.run()
        else:
            with probe.installed(scheduler):
                scheduler.run()
        if prepared.journal is not None:
            close_start = perf_counter()
            prepared.journal.close()
            close_s = perf_counter() - close_start
    except Exception:  # a failed run is a measured outcome, not a crash
        raised = True
        problems.append(traceback.format_exc(limit=3))
    run_s = perf_counter() - run_start

    journal_frames = journal_bytes = 0
    if prepared.journal is not None:
        prepared.journal.close()   # idempotent; closes it after a raise too
        journal_frames = prepared.journal.writer.frames_written
        journal_bytes = prepared.journal.writer.bytes_written
        shutil.rmtree(prepared.journal_dir, ignore_errors=True)

    calls = prepared.calls
    attempted = max(prepared.started[0], 1)
    failed = attempted
    if not raised:
        output_problems = prepared.check()
        problems.extend(output_problems)
        batch_problems = leftovers(prepared)
        try:
            check_all(scheduler.tracer, prepared.instance.name)
        except VerificationError as error:
            batch_problems.append(f"trace property: {error}")
        problems.extend(batch_problems)
        failed = attempted if batch_problems else min(len(output_problems),
                                                      attempted)
    if probe is not None:
        for process, start, end, _ in calls:
            probe.add_span("enroll", start, end, {"process": repr(process)})
    return Batch(
        performances=prepared.instance.performance_count,
        run_s=run_s, setup_s=setup_s, compile_s=prepared.compile_s,
        enroll_ns=[end - start for _, start, end, _ in calls],
        attempted=attempted, failed=failed, problems=problems,
        trace=serialize_trace(scheduler) if keep_trace else None,
        journal_frames=journal_frames, journal_bytes=journal_bytes,
        close_s=close_s)
