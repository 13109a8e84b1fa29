"""Hot-path profiler: per-commit phase attribution for the kernel.

The scheduler's scaling behavior (``BENCH_scheduler.json``) can only be
argued about with attribution: *which* phase of the commit loop absorbs
the cycles as N grows.  :class:`Profiler` is a kernel observer (a
:class:`~repro.runtime.instrument.Sink`) that collects the kernel's phase
timers (``on_phase``) and per-settle work counters (``on_settle``) — see
DESIGN.md §13 for the phase taxonomy — and renders them as a
:class:`ProfileReport` with three export shapes:

* **JSON** (:meth:`ProfileReport.to_dict`) — the work counters, per-commit
  rates and phase call counts are pure functions of the seed, so the
  default export is byte-stable across runs; the measured wall-clock
  section is opt-in (``wall=True``) because nanoseconds never are.
* **Collapsed stacks** (:meth:`ProfileReport.flame_lines`) — the classic
  ``stack;frames weight`` flamegraph format, loadable by speedscope and
  ``flamegraph.pl``.
* **Chrome trace events** (:meth:`ProfileReport.chrome_events`) — ``X``
  duration events on a dedicated profiler lane, mergeable into the span
  trace the ``trace`` command already exports
  (:func:`repro.obs.export.merge_chrome_events`).

Determinism has two layers.  The counters are always deterministic.  The
phase *clock* defaults to ``time.perf_counter_ns`` but is swappable for
:func:`tick_clock`, a counter that advances one tick per reading — with
it even the "wall" widths are byte-stable, which is how the test suite
pins the whole pipeline, flamegraph and Chrome export included.
"""

from __future__ import annotations

import statistics
from itertools import count
from typing import Any, Callable, Hashable

from ..runtime.instrument import Sink
from ..runtime.scheduler import Scheduler

#: Phase names in canonical report order.  "run" is the attribution
#: denominator (the whole ``Scheduler.run`` wall time), not a member.
PHASES = ("dispatch", "match", "commit", "journal", "settle", "timers")

#: Flamegraph stack for each phase (collapsed-stack frame lists).  The
#: settle residual is self-time of the ``settle`` frame, so ``match``,
#: ``commit`` and ``journal`` nest under it exactly as they do at runtime.
_FLAME_STACKS = {
    "dispatch": ("scheduler.run", "dispatch"),
    "match": ("scheduler.run", "settle", "match"),
    "commit": ("scheduler.run", "settle", "commit"),
    "journal": ("scheduler.run", "settle", "commit", "journal"),
    "settle": ("scheduler.run", "settle"),
    "timers": ("scheduler.run", "timers"),
}


def tick_clock() -> Callable[[], int]:
    """A deterministic stand-in for ``perf_counter_ns``.

    Every reading advances the clock by one tick, so a timed region's
    width equals the number of clock reads it encloses — a pure function
    of the run's control flow, hence of the seed.  Install via
    ``Profiler(clock=tick_clock())`` to make every export byte-stable.
    """
    ticks = count(1)
    return lambda: next(ticks)


class Profiler(Sink):
    """Accumulates kernel phase times and settle work counters.

    Attach with :meth:`attach`, beside any observer already attached (a
    :class:`~repro.obs.metrics.RuntimeMetrics`, a journal recorder), then
    build a :class:`ProfileReport` with :meth:`report` after the run.
    The profiler only *observes* — it never touches the RNG or the trace
    — so a profiled run's trace is byte-identical to an unprofiled one.
    """

    def __init__(self, clock: Callable[[], int] | None = None):
        self.clock = clock
        self.phase_ns: dict[str, int] = {phase: 0 for phase in PHASES}
        self.phase_calls: dict[str, int] = {phase: 0 for phase in PHASES}
        self.run_ns = 0
        self.runs = 0
        self.settles = 0
        self.commits = 0
        self.settle_rounds = 0
        self.candidate_queries = 0
        self.candidates_seen = 0
        self.waiters_polled = 0
        self.timer_heap_ops = 0        # cumulative gauge: last sample wins
        self.index_pairs_max = 0
        self.index_dirty_events = 0    # cumulative gauge: last sample wins
        self.board_depth_max = 0
        self.waiter_depth_max = 0
        self._scheduler: Scheduler | None = None

    def attach(self, scheduler: Scheduler) -> "Profiler":
        """Observe ``scheduler`` beside any observer already attached."""
        scheduler.observe(self)
        if self.clock is not None:
            scheduler.prof_clock = self.clock
        self._scheduler = scheduler
        return self

    # -- kernel hooks ------------------------------------------------------

    def on_phase(self, phase: str, ns: int) -> None:
        if phase == "run":
            self.run_ns += ns
            self.runs += 1
            return
        self.phase_ns[phase] = self.phase_ns.get(phase, 0) + ns
        self.phase_calls[phase] = self.phase_calls.get(phase, 0) + 1

    def on_settle(self, time: float, commits: int, rounds: int,
                  queries: int, candidates: int, waiters_polled: int,
                  index_pairs: int, timer_ops: int) -> None:
        self.settles += 1
        self.commits += commits
        self.settle_rounds += rounds
        self.candidate_queries += queries
        self.candidates_seen += candidates
        self.waiters_polled += waiters_polled
        if index_pairs > self.index_pairs_max:
            self.index_pairs_max = index_pairs
        self.timer_heap_ops = timer_ops

    def on_commit(self, time: float, sender: Hashable,
                  receiver: Hashable) -> None:
        # Depths and index counters, sampled at each commit.
        scheduler = self._scheduler
        board = scheduler.board
        if scheduler.board_size > self.board_depth_max:
            self.board_depth_max = scheduler.board_size
        if scheduler.waiter_count > self.waiter_depth_max:
            self.waiter_depth_max = scheduler.waiter_count
        if board.index_size > self.index_pairs_max:
            self.index_pairs_max = board.index_size
        self.index_dirty_events = board.dirty_events

    # -- reporting ---------------------------------------------------------

    def report(self, scenario: str = "", seed: int = 0,
               n: int = 0) -> "ProfileReport":
        """Snapshot everything into a :class:`ProfileReport`."""
        matcher: dict[str, Any] = {}
        if self._scheduler is not None:
            matcher = dict(self._scheduler.board.introspect())
        matcher.update(
            index_pairs_max=self.index_pairs_max,
            index_dirty_events=self.index_dirty_events,
            candidates_per_query=_rate(self.candidates_seen,
                                       self.candidate_queries),
        )
        counters = {
            "settles": self.settles,
            "settle_rounds": self.settle_rounds,
            "candidate_queries": self.candidate_queries,
            "candidates_seen": self.candidates_seen,
            "waiters_polled": self.waiters_polled,
            "timer_heap_ops": self.timer_heap_ops,
            "board_depth_max": self.board_depth_max,
            "waiter_depth_max": self.waiter_depth_max,
        }
        per_commit = {name: _rate(counters[name], self.commits)
                      for name in ("settle_rounds", "candidate_queries",
                                   "candidates_seen", "waiters_polled",
                                   "timer_heap_ops")}
        return ProfileReport(
            scenario=scenario, seed=seed, n=n,
            steps=self.phase_calls.get("dispatch", 0),
            commits=self.commits,
            counters=counters, per_commit=per_commit, matcher=matcher,
            phase_ns=dict(self.phase_ns), phase_calls=dict(self.phase_calls),
            run_ns=self.run_ns,
            deterministic_clock=self.clock is not None)


def _rate(total: int, per: int) -> float:
    """``total / per`` rounded for stable JSON (0.0 when ``per`` is 0)."""
    return round(total / per, 3) if per else 0.0


def _pct(part: int, whole: int) -> float:
    return round(100.0 * part / whole, 2) if whole else 0.0


class ProfileReport:
    """One profiled run, rendered every way the tooling needs.

    Split into a deterministic half (counters, per-commit rates, phase
    call counts — pure functions of the seed) and a wall half (phase
    nanoseconds and their percentage-of-run attribution), so exports can
    be byte-stable when they need to be and quantitative when they don't.
    """

    def __init__(self, *, scenario: str, seed: int, n: int, steps: int,
                 commits: int, counters: dict[str, int],
                 per_commit: dict[str, float], matcher: dict[str, Any],
                 phase_ns: dict[str, int], phase_calls: dict[str, int],
                 run_ns: int, deterministic_clock: bool = False):
        self.scenario = scenario
        self.seed = seed
        self.n = n
        self.steps = steps
        self.commits = commits
        self.counters = counters
        self.per_commit = per_commit
        self.matcher = matcher
        self.phase_ns = phase_ns
        self.phase_calls = phase_calls
        self.run_ns = run_ns
        self.deterministic_clock = deterministic_clock

    @property
    def attributed_ns(self) -> int:
        """Wall time covered by named phases (the numerator of coverage)."""
        return sum(self.phase_ns.values())

    @property
    def attributed_pct(self) -> float:
        """Share of the measured run wall time the phases account for."""
        return _pct(self.attributed_ns, self.run_ns)

    def wall_dict(self) -> dict[str, Any]:
        """The measured-time half: phase ns + percentage-of-run shares."""
        return {
            "clock": ("deterministic-ticks" if self.deterministic_clock
                      else "perf_counter_ns"),
            "run_ns": self.run_ns,
            "attributed_ns": self.attributed_ns,
            "attributed_pct": self.attributed_pct,
            "unattributed_ns": self.run_ns - self.attributed_ns,
            "phases": {phase: {"ns": self.phase_ns.get(phase, 0),
                               "pct": _pct(self.phase_ns.get(phase, 0),
                                           self.run_ns)}
                       for phase in PHASES},
        }

    def to_dict(self, wall: bool = False) -> dict[str, Any]:
        """JSON-able report; byte-stable across same-seed runs unless
        ``wall`` is set (or a deterministic clock was installed)."""
        data: dict[str, Any] = {
            "profile_version": 1,
            "scenario": self.scenario,
            "seed": self.seed,
            "n": self.n,
            "steps": self.steps,
            "commits": self.commits,
            "phases": {phase: {"calls": self.phase_calls.get(phase, 0)}
                       for phase in PHASES},
            "counters": dict(self.counters),
            "per_commit": dict(self.per_commit),
            "matcher": dict(self.matcher),
        }
        if wall:
            data["wall"] = self.wall_dict()
        return data

    def flame_lines(self) -> list[str]:
        """Collapsed-stack flamegraph lines, weighted by phase clock units.

        One ``frame;frame;... weight`` line per phase, plus a root
        self-time line carrying the unattributed remainder of the run —
        so the flamegraph's total width equals the measured run time.
        Load with speedscope (https://www.speedscope.app) or
        ``flamegraph.pl``.
        """
        lines = []
        for phase in PHASES:
            ns = self.phase_ns.get(phase, 0)
            if ns > 0:
                lines.append(f"{';'.join(_FLAME_STACKS[phase])} {ns}")
        unattributed = self.run_ns - self.attributed_ns
        if unattributed > 0:
            lines.append(f"scheduler.run {unattributed}")
        return lines

    def chrome_events(self, tid: int = 9999) -> list[dict[str, Any]]:
        """Chrome-trace ``X`` duration events for the profile lane.

        Phases are laid end-to-end from ``ts=0`` on one dedicated lane
        (``tid`` defaults well clear of the span exporter's counters), so
        the lane reads as a stacked bar of where the run's wall time
        went.  Durations are clock units scaled like the span exporter's
        virtual time; the lane is wall-derived, so only widths — not
        alignment with the virtual-time lanes — are meaningful.
        """
        events: list[dict[str, Any]] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "ts": 0, "args": {"name": "kernel profile (wall)"}}]
        cursor = 0
        for phase in PHASES:
            ns = self.phase_ns.get(phase, 0)
            if ns <= 0:
                continue
            events.append({
                "name": phase, "cat": "profile", "ph": "X", "pid": 1,
                "tid": tid, "ts": cursor, "dur": ns,
                "args": {"calls": self.phase_calls.get(phase, 0),
                         "pct_of_run": _pct(ns, self.run_ns)}})
            cursor += ns
        unattributed = self.run_ns - self.attributed_ns
        if unattributed > 0:
            events.append({
                "name": "(unattributed)", "cat": "profile", "ph": "X",
                "pid": 1, "tid": tid, "ts": cursor, "dur": unattributed,
                "args": {"pct_of_run": _pct(unattributed, self.run_ns)}})
        return events

    def summary_lines(self) -> list[str]:
        """Human-readable attribution table for the CLI."""
        unit = "ticks" if self.deterministic_clock else "ns"
        lines = [f"phase attribution ({self.attributed_pct}% of "
                 f"{self.run_ns} {unit} run wall attributed):"]
        for phase in PHASES:
            ns = self.phase_ns.get(phase, 0)
            calls = self.phase_calls.get(phase, 0)
            if not ns and not calls:
                continue
            lines.append(f"  {phase:<9} {_pct(ns, self.run_ns):>6.2f}%  "
                         f"{ns:>12} {unit}  {calls:>8} calls")
        lines.append("counters (per commit):")
        for name, value in self.per_commit.items():
            lines.append(f"  {name:<18} {value:>10}  "
                         f"(total {self.counters[name]})")
        lines.append(
            f"matcher: pairs max {self.matcher.get('index_pairs_max', 0)}, "
            f"dirty events {self.matcher.get('index_dirty_events', 0)}, "
            f"candidates/query "
            f"{self.matcher.get('candidates_per_query', 0.0)}")
        lines.append(
            f"repost cache: hits {self.matcher.get('cache_hits', 0)}, "
            f"misses {self.matcher.get('cache_misses', 0)}, "
            f"resumed pairs {self.matcher.get('resumed_pairs', 0)}, "
            f"swept pairs {self.matcher.get('swept_pairs', 0)}")
        return lines


# ---------------------------------------------------------------------------
# The regression explainer: which phase's share grew?
# ---------------------------------------------------------------------------

def _iter_reports(document: dict[str, Any]):
    """Yield ``(label, report_dict)`` from either profile JSON shape.

    Accepts a single :meth:`ProfileReport.to_dict` document or a
    ``BENCH_profile.json`` sweep (``{"shapes": {shape: {n: cell}}}``).
    """
    if "shapes" in document:
        for shape, cells in sorted(document["shapes"].items()):
            for n, cell in sorted(cells.items(), key=lambda kv: int(kv[0])):
                yield f"{shape} N={n}", cell
    else:
        label = document.get("scenario") or "profile"
        yield str(label), document


def _wall_amount(ns: int, clock: str | None) -> str:
    """Phase time for a diff line: ms, or ticks under a tick clock."""
    if clock == "deterministic-ticks":
        return f"{ns} ticks"
    return f"{ns / 1e6:.1f} ms"


def _side(documents: dict[str, Any] | list[dict[str, Any]]
          ) -> dict[str, list[dict[str, Any]]]:
    """One diff side's reports with a wall section, grouped by label."""
    if isinstance(documents, dict):
        documents = [documents]
    runs: dict[str, list[dict[str, Any]]] = {}
    for document in documents:
        for label, report in _iter_reports(document):
            if "wall" in report:
                runs.setdefault(label, []).append(report)
    return runs


def _center(values: list[float]) -> tuple[float, float]:
    """The low median of ``values`` and their interquartile range.

    The low median is always one run's value; the range is 0 for a
    single run.
    """
    spread = 0.0
    if len(values) > 1:
        low, _, high = statistics.quantiles(values, n=4, method="inclusive")
        spread = high - low
    return statistics.median_low(values), spread


def _phase_stats(runs: list[dict[str, Any]], field: str, empty: float,
                 phases: list[str]) -> dict[str, tuple[float, float]]:
    """Per phase, :func:`_center` of ``field`` across ``runs``."""
    return {phase: _center([run["wall"].get("phases", {}).get(phase, {}).get(
                field, empty) for run in runs])
            for phase in phases}


def _phases_of(runs: list[dict[str, Any]]) -> list[str]:
    """Every phase named in any of ``runs``, in first-seen order."""
    return list(dict.fromkeys(
        phase for run in runs for phase in run["wall"].get("phases", {})))


def _median_rates(runs: list[dict[str, Any]]) -> dict[str, float]:
    """Per-commit counter rates, the low median across ``runs``."""
    names = dict.fromkeys(c for run in runs for c in run.get("per_commit", {}))
    return {c: _center([run.get("per_commit", {}).get(c, 0.0)
                        for run in runs])[0]
            for c in names}


def diff_attributions(old: dict[str, Any] | list[dict[str, Any]],
                      new: dict[str, Any] | list[dict[str, Any]]
                      ) -> list[str]:
    """Name the phase that explains the change between two profiles.

    The bench-gate explainer.  Each side is one saved report or a list of
    them (repeated runs), and per label and phase the medians of the two
    sides are compared.  For every label present on both sides: when the
    phases' total time fell, the phase with the largest absolute drop is
    reported with its old and new time and its share of the saving, so a
    speed-up names the phase that got faster; otherwise the phase with
    the largest percentage-point share growth is reported, saying *where*
    the new cycles went.  A phase is named only when its median moved by
    more than the larger interquartile range of the two sides; when none
    did, the line says so and gives the largest move and its spread.
    With one report per side the spread is 0.  Each line carries the
    per-commit counter that moved the most.  Output is informational —
    sorted by share growth, largest first.
    """
    olds = _side(old)
    news = _side(new)
    findings: list[tuple[float, str]] = []
    for label, fresh in news.items():
        base = olds.get(label)
        phases = _phases_of(fresh) if base else []
        if not phases:
            continue
        old_pct = _phase_stats(base, "pct", 0.0, phases)
        new_pct = _phase_stats(fresh, "pct", 0.0, phases)
        old_ns = _phase_stats(base, "ns", 0, _phases_of(base))
        new_ns = _phase_stats(fresh, "ns", 0, phases)
        grown = sorted(((new_pct[p][0] - old_pct[p][0], p) for p in phases),
                       reverse=True)
        delta = grown[0][0]
        saved = (sum(m for m, _ in old_ns.values())
                 - sum(m for m, _ in new_ns.values()))
        if saved > 0:
            moves = sorted(((old_ns.get(p, (0, 0.0))[0] - new_ns[p][0], p)
                            for p in phases), reverse=True)
            stats = (old_ns, new_ns)
        else:
            moves = grown
            stats = (old_pct, new_pct)
        spread = {p: max(side.get(p, (0, 0.0))[1] for side in stats)
                  for p in phases}
        named = [(move, p) for move, p in moves if move > spread[p]]
        counter_note = ""
        old_rates = _median_rates(base)
        new_rates = _median_rates(fresh)
        rate_deltas = sorted(
            ((abs(new_rates[c] - old_rates.get(c, 0.0)), c)
             for c in new_rates), reverse=True)
        if rate_deltas and rate_deltas[0][0] > 0:
            counter = rate_deltas[0][1]
            counter_note = (f"; {counter}/commit "
                            f"{old_rates.get(counter, 0.0)} -> "
                            f"{new_rates[counter]}")
        clock = fresh[0]["wall"].get("clock")

        def show(side: dict[str, tuple[float, float]], phase: str) -> str:
            value = side.get(phase, (0, 0.0))[0]
            return _wall_amount(value, clock) if saved > 0 else f"{value}%"

        if named and saved > 0:
            drop, phase = named[0]
            line = (f"phase '{phase}' fell {show(old_ns, phase)} -> "
                    f"{show(new_ns, phase)}, {_pct(drop, saved)}% of the "
                    f"{_wall_amount(saved, clock)} the phases saved")
        elif named:
            move, phase = named[0]
            line = (f"phase '{phase}' grew {show(old_pct, phase)} -> "
                    f"{show(new_pct, phase)} of run wall "
                    f"(+{round(move, 2)} pts)")
        elif moves[0][0] > 0:
            move, phase = moves[0]
            width = (_wall_amount(spread[phase], clock) if saved > 0
                     else f"{round(spread[phase], 2)} pts")
            line = (f"no phase moved beyond the runs' spread (largest "
                    f"move: '{phase}' {show(stats[0], phase)} -> "
                    f"{show(stats[1], phase)}, spread {width})")
        else:
            phase = grown[0][1]
            line = (f"no phase share grew (largest: '{phase}' "
                    f"{old_pct[phase][0]}% -> {new_pct[phase][0]}%)")
        findings.append((delta, f"{label}: {line}{counter_note}"))
    return [line for _, line in
            sorted(findings, key=lambda f: f[0], reverse=True)]


# ---------------------------------------------------------------------------
# Scenario entry point (the CLI's workhorse)
# ---------------------------------------------------------------------------

def profile_scenario(name: str, seed: int = 0, n: int = 5,
                     deterministic: bool = False):
    """Run one instrumented scenario under the profiler.

    Returns ``(run, report)``: the
    :class:`~repro.obs.scenarios.ScenarioRun` (metrics included — the
    profiler observes beside them) and the built
    :class:`ProfileReport`.  ``deterministic`` swaps the phase clock for
    :func:`tick_clock`, making every export byte-stable.
    """
    from .scenarios import run_scenario
    profiler = Profiler(clock=tick_clock() if deterministic else None)
    run = run_scenario(name, seed=seed, n=n, profiler=profiler)
    return run, profiler.report(scenario=name, seed=seed, n=n)
