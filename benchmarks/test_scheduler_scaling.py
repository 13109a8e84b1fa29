"""Scaling sweep: indexed board vs the full-scan oracle matcher.

Three raw-kernel shapes chosen to stress the matcher differently:

- ``pingpong``  — N independent pairs exchanging messages: the board holds
  up to 2N offer groups but every group has exactly one viable partner, so
  the full scan wastes O(N) work per commit on pairs that cannot match.
- ``star``     — one hub sending to N leaves in sequence: a classic
  broadcast where the oracle re-derives the same N-1 untouched receive
  offers after every commit.
- ``fanin``    — N producers racing into one selecting consumer: a deep
  board on the send side, with the seeded RNG arbitrating each round.

Each (shape, N) cell runs under both boards and records wall-clock
ops/sec (committed rendezvous per second) into ``BENCH_scheduler.json``
at the repository root.  The sweep sizes come from the
``BENCH_SCHEDULER_SIZES`` environment variable (comma-separated; CI runs
the small sizes, the committed JSON is the full local sweep).

This module does its own timing on purpose — it runs under plain
``pytest`` with no pytest-benchmark flags, so the CI job can invoke it
directly and upload the JSON artifact.
"""

import json
import os
import pathlib
import statistics
import time

import pytest

from repro.runtime import (IndexedBoard, OracleBoard, Receive, Scheduler,
                           Select, Send)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_scheduler.json"

DEFAULT_SIZES = "10,50,200,500"
SIZES = tuple(int(s) for s in
              os.environ.get("BENCH_SCHEDULER_SIZES",
                             DEFAULT_SIZES).split(","))
# Communication rounds per process.  High enough that steady-state
# matching dominates the one-off spawn/teardown cost in every cell.
ROUNDS = 4


# ---------------------------------------------------------------------------
# Workload shapes (raw kernel: no script layer, matching cost dominates)
# ---------------------------------------------------------------------------

def build_pingpong(scheduler, n):
    def left(i):
        for _ in range(ROUNDS):
            yield Send(("R", i), i)
            yield Receive(("R", i))

    def right(i):
        for _ in range(ROUNDS):
            yield Receive(("L", i))
            yield Send(("L", i), i)

    for i in range(n):
        scheduler.spawn(("L", i), left(i))
        scheduler.spawn(("R", i), right(i))
    return 2 * n * ROUNDS


def build_star(scheduler, n):
    # ROUNDS broadcast waves keep every leaf's receive posted while the
    # hub works, so the matcher faces a full board at steady state — the
    # shape the full scan pays O(board) per commit on.
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


def build_fanin(scheduler, n):
    def producer(i):
        yield Send("hub", i, tag="a" if i % 2 else "b")

    def hub():
        for _ in range(n):
            yield Select((Receive(tag="a"), Receive(tag="b")))

    scheduler.spawn("hub", hub())
    for i in range(n):
        scheduler.spawn(("prod", i), producer(i))
    return n


SHAPES = {"pingpong": build_pingpong, "star": build_star,
          "fanin": build_fanin}


class PrePRScheduler(Scheduler):
    """The pre-PR configuration this PR's speedup is measured against.

    Three reverted behaviors, matching the seed scheduler verbatim:
    the full-scan matcher (:class:`OracleBoard`), the settle-after-every-
    step cadence (no dirty-set skip), and the eagerly rendered blocked
    reason on every post.
    """

    def _settle(self):
        # Verbatim pre-PR settle body: _filter_commits per query, waiter
        # list built every round.  Re-marking the board dirty afterwards
        # disables the run loop's dirty-set skip.
        changed = True
        while changed:
            changed = False
            while True:
                candidates = self._filter_commits(
                    self._board.candidates(self.alias_owner))
                if not candidates:
                    break
                commit = self.rng.choice(candidates)
                self._commit(commit)
                changed = True
            for name in list(self._waiters):
                waiter = self._waiters.get(name)
                if waiter is None:
                    continue
                if waiter.predicate():
                    del self._waiters[name]
                    self._make_ready(waiter.process)
                    changed = True
        self._board_dirty = True

    def _post_group(self, process, group, timeout=None):
        super()._post_group(process, group, timeout=timeout)
        process.blocked_reason = group.describe()  # eager, as pre-PR


def make_scheduler(board_name):
    if board_name == "oracle":
        return PrePRScheduler(seed=0, board=OracleBoard(),
                              max_steps=10_000_000)
    return Scheduler(seed=0, board=IndexedBoard(), max_steps=10_000_000)


BOARDS = ("indexed", "oracle")


REPS = 5  # timed rounds per cell; N>2 so the median rides out jitter


def measure_cell(shape, n):
    """Run one (shape, N) cell under both boards; return the cell dict.

    One untimed warmup round per board runs first so allocator warm-up,
    lazy imports and branch-predictor state are paid outside the
    measurement.  The timed reps then *interleave* the two boards
    (indexed rep k immediately followed by oracle rep k) and the speedup
    is the median of the per-rep ratios: on a noisy host whose
    throughput drifts between runs, back-to-back pairs see the same
    machine state, so a slowdown burst scales both arms of a pair and
    cancels out of the ratio — where timing all reps of one arm before
    the other lets a burst land on a single arm and skew it.  The
    absolute ops/sec figures are each arm's median rep, as before.
    """
    comms = {}
    samples = {board_name: [] for board_name in BOARDS}
    for board_name in BOARDS:
        scheduler = make_scheduler(board_name)
        comms[board_name] = SHAPES[shape](scheduler, n)
        scheduler.run()  # warmup: same shape, thrown away
    for _ in range(REPS):
        for board_name in BOARDS:
            scheduler = make_scheduler(board_name)
            SHAPES[shape](scheduler, n)
            start = time.perf_counter()
            scheduler.run()
            samples[board_name].append(time.perf_counter() - start)
    cell = {}
    for board_name in BOARDS:
        seconds = statistics.median(samples[board_name])
        cell[board_name] = {
            "comms": comms[board_name],
            "seconds": round(seconds, 6),
            "ops_per_sec": round(comms[board_name] / seconds, 1),
        }
    cell["speedup"] = round(statistics.median(
        oracle / indexed for indexed, oracle
        in zip(samples["indexed"], samples["oracle"])), 2)
    return cell


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

#: Regression gate: a freshly measured indexed cell slower than this
#: fraction of the committed baseline fails the run.  25% headroom
#: absorbs runner noise while still catching real regressions.  The gate
#: is ON by default (CI enforces it); export ``BENCH_GATE=0`` to opt out
#: when measuring on a machine so different from the one that recorded
#: the committed JSON that absolute numbers cannot travel.
GATE_RATIO = 0.75


def gate_enabled():
    return os.environ.get("BENCH_GATE", "1") not in ("0", "", "off")


def _baseline_gate(report):
    """Compare fresh indexed ops/sec against the committed baseline.

    Returns a list of human-readable regression strings (empty = pass).
    Only cells present in both sweeps are compared, so a resized
    BENCH_SCHEDULER_SIZES run gates on the overlap.
    """
    if not OUTPUT.exists():
        return []
    baseline = json.loads(OUTPUT.read_text())
    regressions = []
    for shape, cells in report["shapes"].items():
        old_cells = baseline.get("shapes", {}).get(shape, {})
        for n, cell in cells.items():
            old = old_cells.get(n, {}).get("indexed", {}).get("ops_per_sec")
            if not old:
                continue
            new = cell["indexed"]["ops_per_sec"]
            if new < GATE_RATIO * old:
                regressions.append(
                    f"{shape} N={n}: {new} ops/s is "
                    f"{new / old:.0%} of the recorded {old} ops/s "
                    f"(floor {GATE_RATIO:.0%})")
    return regressions


def test_scaling_sweep(capsys):
    report = {"generated_by": "benchmarks/test_scheduler_scaling.py",
              "unit": "ops_per_sec (committed rendezvous per wall second)",
              "rounds_per_pair": ROUNDS, "sizes": list(SIZES), "shapes": {}}
    for shape in SHAPES:
        cells = {}
        for n in SIZES:
            cells[str(n)] = measure_cell(shape, n)
        report["shapes"][shape] = cells
    # Gate BEFORE overwriting: the committed JSON is the baseline.
    regressions = _baseline_gate(report) if gate_enabled() else []
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")

    with capsys.disabled():
        print(f"\nwrote {OUTPUT}")
        for shape, cells in report["shapes"].items():
            for n, cell in cells.items():
                print(f"  {shape:>8} N={n:>4}: "
                      f"indexed {cell['indexed']['ops_per_sec']:>10} ops/s  "
                      f"oracle {cell['oracle']['ops_per_sec']:>10} ops/s  "
                      f"({cell['speedup']}x)")

    # The cliff-kill criterion: the indexed curve is FLAT.  Per shape,
    # ops/sec at the largest measured N stays within 3x of the smallest
    # N (the seed collapsed ~12x on fan-in).  Flatness compares the same
    # arm against itself inside one sweep, so it is robust to how loaded
    # the host happens to be — unlike an absolute speedup-vs-oracle
    # floor, which compresses when a contended host slows the tight
    # oracle scan loop less than the indexed board's pointer chasing.
    lo, hi = str(min(SIZES)), str(max(SIZES))
    if lo != hi:
        for shape, cells in report["shapes"].items():
            small = cells[lo]["indexed"]["ops_per_sec"]
            large = cells[hi]["indexed"]["ops_per_sec"]
            assert large >= small / 3.0, \
                f"{shape}: indexed collapsed {small} -> {large} ops/s"
    # Regression tripwire on the star shape, where the oracle's O(board)
    # scan shows at N=200: a true return of the quadratic board would
    # drag this toward ~1x.  Quiet-host sweeps measure 3-4x; the floor
    # sits at 2x because host contention compresses the ratio (see
    # above), and the flatness assertions are the primary signal.
    if 200 in SIZES:
        assert report["shapes"]["star"]["200"]["speedup"] >= 2.0
    # Sanity floor at every size the sweep did run: never slower than ~par.
    for shape, cells in report["shapes"].items():
        for n, cell in cells.items():
            assert cell["speedup"] > 0.5, (shape, n, cell)
    assert not regressions, \
        "ops/sec regression vs committed baseline:\n  " \
        + "\n  ".join(regressions)


# ---------------------------------------------------------------------------
# Profile mode: phase attribution per cell -> BENCH_profile.json
# ---------------------------------------------------------------------------

PROFILE_OUTPUT = REPO_ROOT / "BENCH_profile.json"


def profile_cell(shape, n):
    """One profiled run of a (shape, N) cell on the indexed board.

    Returns the cell dict for ``BENCH_profile.json``: the full
    :meth:`ProfileReport.to_dict(wall=True)` report plus ops/sec, so
    ``python -m repro profile --diff`` can explain a regression between
    two sweeps.  A warmup run precedes the profiled ones for the same
    reason :func:`measure_cell` warms up.  Three profiled reps run and
    the fastest is kept: a machine-wide slowdown burst landing inside
    one phase window inflates that phase's share arbitrarily (a single
    unlucky rep has been seen crediting dispatch 77% on a cell whose
    typical share is 52%), and since noise only ever *adds* time, the
    highest-throughput rep is the least contaminated attribution.
    """
    from repro.obs import Profiler
    scheduler = make_scheduler("indexed")
    SHAPES[shape](scheduler, n)
    scheduler.run()  # warmup
    best = None
    for _ in range(3):
        scheduler = make_scheduler("indexed")
        profiler = Profiler().attach(scheduler)
        comms = SHAPES[shape](scheduler, n)
        start = time.perf_counter()
        scheduler.run()
        elapsed = time.perf_counter() - start
        cell = profiler.report(scenario=shape, seed=0,
                               n=n).to_dict(wall=True)
        cell["comms"] = comms
        cell["ops_per_sec"] = round(comms / elapsed, 1)
        if best is None or cell["ops_per_sec"] > best["ops_per_sec"]:
            best = cell
    return best


def test_profile_sweep(capsys):
    """Attribute each cell's wall time to kernel phases.

    Writes ``BENCH_profile.json`` in the ``{"shapes": {shape: {n: cell}}}``
    layout that :func:`repro.obs.profile.diff_attributions` consumes, and
    asserts the named phases explain >= 80% of every cell's wall time —
    less means the profiler lost sight of where the cycles go.
    """
    report = {"generated_by": "benchmarks/test_scheduler_scaling.py",
              "profile_version": 1, "rounds_per_pair": ROUNDS,
              "sizes": list(SIZES), "shapes": {}}
    for shape in SHAPES:
        report["shapes"][shape] = {str(n): profile_cell(shape, n)
                                   for n in SIZES}
    PROFILE_OUTPUT.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    with capsys.disabled():
        print(f"\nwrote {PROFILE_OUTPUT}")
        for shape, cells in report["shapes"].items():
            for n, cell in cells.items():
                wall = cell["wall"]
                top = max(
                    wall["phases"], key=lambda p: wall["phases"][p]["ns"])
                print(f"  {shape:>8} N={n:>4}: "
                      f"{wall['attributed_pct']:>6.2f}% attributed, "
                      f"top phase {top} "
                      f"({wall['phases'][top]['pct']}%), "
                      f"{cell['per_commit']['candidates_seen']} "
                      f"candidates/commit")

    # Attribution floor.  Before the incremental-repost work the fan-in
    # N=500 cell attributed 98.6% — the O(N)-per-commit board phases it
    # was drowning in were all instrumented.  With those phases now
    # O(committed pair), every cell attributes 87-91%: the remainder is
    # the per-step run-loop slack between phase windows, which no longer
    # shrinks relative to the (much cheaper) phases.  The floor is 80%
    # everywhere — a matcher regression pushes work *into* instrumented
    # phases, so attribution falling below this means the profiler lost
    # coverage, not that the kernel got slower.
    for shape, cells in report["shapes"].items():
        for n, cell in cells.items():
            assert cell["wall"]["attributed_pct"] >= 80.0, \
                (shape, n, cell["wall"]["attributed_pct"])


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shapes_agree_across_boards(shape):
    """Same seed, same shape: both matchers commit the same rendezvous."""
    from repro.runtime import format_trace
    results = {}
    for board_name in BOARDS:
        scheduler = make_scheduler(board_name)
        SHAPES[shape](scheduler, 20)
        scheduler.run()
        results[board_name] = format_trace(scheduler.tracer)
    assert results["indexed"] == results["oracle"]
