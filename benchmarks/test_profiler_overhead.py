"""Disabled-profiler overhead: instrumented kernel vs the pre-PR kernel.

The profiler's zero-cost claim is architectural — every timing site is
behind a ``self._phase_hooks`` / ``self._settle_hooks`` capability test
that stays false until a profiling observer attaches — but architecture
is not measurement.  This benchmark pits the instrumented scheduler with
*no observer attached* against :class:`PreProfilerScheduler`, whose hot
methods are the pre-PR bodies verbatim (no flag checks at all), on the
star broadcast shape at N=200, and asserts the flag checks cost under
``MAX_OVERHEAD_PCT`` on the run's critical path.

Method mirrors ``benchmarks/test_journal_overhead.py``: arms interleaved
per rep so CPU-frequency drift hits both equally, per-rep ratios so load
drift cancels, the *median* ratio gated (the min would crown the
luckiest pair), GC paused inside timed regions, and up to three attempts
keeping the best — ambient runner load shows up as phantom overhead at
these run lengths, while a genuine regression fails all three.

The profiler-attached arm is recorded for context (what turning the
profiler *on* costs) but not gated: enabling instrumentation is allowed
to cost; shipping it disabled is not.
"""

import gc
import heapq
import json
import os
import pathlib
import statistics
import time

import pytest

from repro.errors import DeadlockError
from repro.obs import Profiler
from repro.runtime import IndexedBoard, Receive, Scheduler, Send
from repro.runtime.process import _FINISHED_STATES
from repro.runtime.scheduler import RunResult, TimerHandle

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_profiler.json"

N = 200
ROUNDS = int(os.environ.get("BENCH_PROFILER_ROUNDS", "24"))
REPS = 10

#: The issue's acceptance floor: a disabled profiler must stay invisible.
MAX_OVERHEAD_PCT = 2.0


def build_star(scheduler, n):
    def hub():
        for _ in range(ROUNDS):
            for i in range(n):
                yield Send(("leaf", i), i)

    def leaf(i):
        for _ in range(ROUNDS):
            yield Receive("hub")

    scheduler.spawn("hub", hub())
    for i in range(n):
        scheduler.spawn(("leaf", i), leaf(i))
    return n * ROUNDS


class PreProfilerScheduler(Scheduler):
    """The kernel exactly as it was before phase instrumentation landed.

    Every method the profiler touched — ``run``, ``_settle``,
    ``_advance_clock``, ``_push_timer``, ``_prune_timers`` — is the
    pre-PR body verbatim: no capability-flag checks, no profiled
    variants reachable.  (``_commit``'s instrumentation lives inside the
    cadence-hook conditional, which never executes without a journal
    attached, so it needs no revert here.)
    """

    def run(self, until=None):
        while True:
            if self._first_failure is not None and self.fail_fast:
                raise self._first_failure
            if not self._ready:
                self._prune_timers()
                if not self._timers:
                    if self._board.groups or self._waiters:
                        self._settle()
                        if self._ready:
                            continue
                        raise DeadlockError(self._blocked_summary())
                    break
                next_time = self._timers[0][0]
                if until is not None and next_time > until:
                    self.now = until
                    break
                self._advance_clock(next_time)
                self._settle()
                continue
            process = self._ready.popleft()
            if process.state in _FINISHED_STATES:
                continue
            self._step(process)
            if self._waiters or (self._board_dirty
                                 and self._board.needs_settle):
                self._settle()
        return RunResult(self)

    def _prune_timers(self):
        while self._timers and self._timers[0][2].cancelled:
            _, _, handle = heapq.heappop(self._timers)
            handle._in_heap = False
            self._cancelled_in_heap -= 1

    def _advance_clock(self, to_time):
        self.now = to_time
        while self._timers and self._timers[0][0] <= self.now:
            _, seq, handle = heapq.heappop(self._timers)
            handle._in_heap = False
            if handle.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._armed_timers -= 1
            self._unregister_timer(handle)
            if self._decision_hooks:
                for hook in self._decision_hooks:
                    hook(self.now, "timer", handle.owner, seq)
            handle.action()
        self._prune_timers()

    def _push_timer(self, time, action, owner=None):
        self._timer_seq += 1
        handle = TimerHandle(action, scheduler=self, owner=owner)
        heapq.heappush(self._timers, (time, self._timer_seq, handle))
        self._armed_timers += 1
        if owner is not None:
            self._process_timers.setdefault(owner, set()).add(handle)
        return handle

    def _settle(self):
        self._board_dirty = False
        board_candidates = self._board.candidates
        owner = self.alias_owner
        changed = True
        while changed:
            changed = False
            while True:
                candidates = board_candidates(owner)
                if candidates:
                    allow = self.match_filter
                    if allow is not None:
                        passed = []
                        for c in candidates:
                            if allow(c.sender, c.receiver):
                                passed.append(c)
                        candidates = passed
                if not candidates:
                    break
                commit = self.rng.choice(candidates)
                self._commit(commit)
                changed = True
            if self._waiters:
                for name in list(self._waiters):
                    waiter = self._waiters.get(name)
                    if waiter is None:
                        continue
                    if waiter.predicate():
                        del self._waiters[name]
                        self._make_ready(waiter.process)
                        changed = True


def test_pre_profiler_kernel_deadlocks_under_a_vetoing_filter():
    """The frozen kernel's filtered branch runs: a filter that vetoes
    every pair leaves a lone sender and receiver deadlocked."""
    scheduler = PreProfilerScheduler(seed=0)
    scheduler.match_filter = lambda sender, receiver: False

    def sender():
        yield Send("receiver", 1)

    def receiver():
        yield Receive("sender")

    scheduler.spawn("sender", sender())
    scheduler.spawn("receiver", receiver())
    with pytest.raises(DeadlockError):
        scheduler.run()


MODES = ("pre", "off", "on")


def one_run(mode):
    """One star run; returns run wall seconds."""
    if mode == "pre":
        scheduler = PreProfilerScheduler(seed=0, board=IndexedBoard(),
                                         max_steps=10_000_000)
    else:
        scheduler = Scheduler(seed=0, board=IndexedBoard(),
                              max_steps=10_000_000)
    if mode == "on":
        Profiler().attach(scheduler)
    build_star(scheduler, N)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        scheduler.run()
        return time.perf_counter() - start
    finally:
        gc.enable()


def measure():
    """Interleaved reps; returns the report with median per-rep ratios."""
    for mode in MODES:  # warm-up: imports, allocator, page cache
        one_run(mode)
    best = {mode: float("inf") for mode in MODES}
    ratios = {mode: [] for mode in MODES}
    for rep in range(REPS):
        rep_run = {}
        order = MODES[rep % len(MODES):] + MODES[:rep % len(MODES)]
        for mode in order:
            elapsed = one_run(mode)
            rep_run[mode] = elapsed
            best[mode] = min(best[mode], elapsed)
        for mode in MODES:
            ratios[mode].append(rep_run[mode] / rep_run["pre"])
    report = {"generated_by": "benchmarks/test_profiler_overhead.py",
              "shape": "star", "n": N, "rounds": ROUNDS, "reps": REPS,
              "unit": "milliseconds (best of interleaved reps)",
              "modes": {}}
    for mode in MODES:
        entry = {"run_ms": round(best[mode] * 1000, 3)}
        if mode != "pre":
            entry["overhead_pct"] = round(
                (statistics.median(ratios[mode]) - 1) * 100, 2)
        report["modes"][mode] = entry
    return report


def test_disabled_profiler_overhead(capsys):
    report, overhead = None, float("inf")
    for _ in range(3):
        attempt = measure()
        if attempt["modes"]["off"]["overhead_pct"] < overhead:
            report = attempt
            overhead = attempt["modes"]["off"]["overhead_pct"]
        if overhead < 0.5 * MAX_OVERHEAD_PCT:
            break
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print(f"\nwrote {OUTPUT}")
        for mode, entry in report["modes"].items():
            extra = (f"  (+{entry['overhead_pct']}% vs pre-PR)"
                     if mode != "pre" else "")
            print(f"  {mode:>4}: run {entry['run_ms']:>8}ms{extra}")

    assert overhead < MAX_OVERHEAD_PCT, (
        f"disabled profiler costs {overhead}% on the scheduler critical "
        f"path (floor {MAX_OVERHEAD_PCT}%)")
