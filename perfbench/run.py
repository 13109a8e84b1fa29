"""Script-performance benchmark: end-to-end and per-layer metrics.

Run one workload::

    python3 perfbench/run.py --workload star-delayed --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics (see ``layers.py``), the tracing overhead, and checks
that the traced trace equals the untraced one event for event.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With no ``--workload``, every workload runs in a fresh process, untraced
and traced, and the results are also written to ``perfbench/out/``.
The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import LayerProbe  # noqa: E402
from workloads import OUT_DIR, Batch, run_batch, workload_table  # noqa: E402

END_TO_END_UNITS = {"perf_per_s": "1/s", "enroll_p50_us": "us",
                    "enroll_p99_us": "us", "setup_s": "s",
                    "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "core.solve_calls_per_perf": "count",
    "core.solve_us_per_perf": "us",
    "core.solve_hit_ratio": "ratio",
    "core.solve_pool_depth_mean": "count",
    "core.join_calls_per_perf": "count",
    "core.join_us_per_perf": "us",
    "core.wait_polls_per_perf": "count",
    "core.wait_us_per_perf": "us",
    "core.pool_wait_p50_us": "us",
    "body.self_us_per_perf": "us",
    "lang.compile_ms": "ms",
    "runtime.dispatch_self_us_per_commit": "us",
    "runtime.match_self_us_per_commit": "us",
    "runtime.commit_self_us_per_commit": "us",
    "runtime.settle_self_us_per_commit": "us",
    "runtime.timers_self_us_per_commit": "us",
    "runtime.commits_per_perf": "count",
    "runtime.steps_per_perf": "count",
    "runtime.settle_rounds_per_commit": "count",
    "runtime.waiters_polled_per_commit": "count",
    "runtime.candidates_per_query": "count",
    "runtime.board_depth_max": "count",
    "runtime.attributed_pct": "%",
    "persist.journal_us_per_commit": "us",
    "persist.close_ms": "ms",
    "persist.frames_per_perf": "count",
    "persist.bytes_per_perf": "bytes",
    "trace_overhead_pct": "%",
}


#: Each end-to-end metric is the median of its best this-many batches.
BEST_OF = 3


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values`` (0 if empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_batches(workload: Any, seed: int, seconds: float, traced: bool
                ) -> tuple[list[Batch], list[tuple[Batch, LayerProbe]]]:
    """Run batches until ``seconds`` of wall time are spent.

    Traced runs pair each untraced batch with a traced batch of the same
    index, hence the same inputs and schedule; the first pair also keeps
    both traces for the fidelity check.  Batches take turns on the CPUs
    the process may use: a shared core can stay slow for minutes, and a
    process the kernel leaves on it would measure only the neighbour.
    """
    plain: list[Batch] = []
    traced_batches: list[tuple[Batch, LayerProbe]] = []
    pinning = hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if pinning else []
    deadline = perf_counter() + seconds
    index = 0
    try:
        while not plain or perf_counter() < deadline:
            if pinning:
                os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            gc.collect()
            plain.append(run_batch(workload, seed, index,
                                   keep_trace=traced and index == 0))
            if traced:
                gc.collect()
                probe = LayerProbe()
                batch = run_batch(workload, seed, index, probe=probe,
                                  keep_trace=index == 0)
                traced_batches.append((batch, probe))
            index += 1
    finally:
        if pinning:
            os.sched_setaffinity(0, cpus)
    return plain, traced_batches


def best_of(values: list[float], higher_is_better: bool = False) -> float:
    """Median of the ``BEST_OF`` best ``values``, one value per batch.

    Min-of-N, as ``timeit`` advises for CPU-bound code: on a machine whose
    cores are shared, the same batch runs up to 1.8x slower while a
    neighbour is busy, in phases that last from seconds to minutes.  Every
    batch of a workload does the same work, so its best batches are the
    least disturbed ones, and a slower program makes them worse too.
    """
    ranked = sorted(values, reverse=higher_is_better)
    return statistics.median(ranked[:BEST_OF])


def end_to_end(batches: list[Batch]
               ) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end metrics, each over its best batches, and sample counts.

    Enroll percentiles are taken per batch: each batch has at least 1,000
    enroll calls, so its 99th percentile has 10 samples beyond it.
    Batches with failed enroll calls are left out unless all failed.
    """
    batches = [b for b in batches if not b.failed] or batches

    def enroll_us(batch: Batch, q: float) -> float:
        return percentile(batch.enroll_ns, q) / 1e3

    metrics = {
        "perf_per_s": best_of([b.performances / b.run_s for b in batches],
                              higher_is_better=True),
        "enroll_p50_us": best_of([enroll_us(b, 50) for b in batches]),
        "enroll_p99_us": best_of([enroll_us(b, 99) for b in batches]),
        "setup_s": best_of([b.setup_s for b in batches]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    best = f"best {min(BEST_OF, len(batches))} of {len(batches)} batches"
    calls = f"{best}, >= {min(len(b.enroll_ns) for b in batches)} calls each"
    samples = {"perf_per_s": best, "enroll_p50_us": calls,
               "enroll_p99_us": calls, "setup_s": best,
               "peak_rss_mb": "1 process"}
    return metrics, samples


def per_layer(plain: list[Batch], traced: list[tuple[Batch, LayerProbe]]
              ) -> dict[str, float]:
    """Per-layer metrics summed over every traced batch."""
    perfs = sum(b.performances for b, _ in traced)
    probes = [p for _, p in traced]
    reports = [p.profiler.report() for p in probes]
    commits = sum(r.commits for r in reports)

    def total(attribute: str, key: str) -> int:
        return sum(getattr(p, attribute)[key] for p in probes)

    def phase_ns(phase: str) -> int:
        return sum(r.phase_ns.get(phase, 0) for r in reports)

    def counter(name: str) -> int:
        return sum(r.counters[name] for r in reports)

    def per_commit_us(ns: int) -> float:
        return _ratio(ns / 1e3, commits)

    solves = total("calls", "core.solve")
    pool_waits = [ns / 1e3 for p in probes for ns in p.pool_waits_ns]
    journaled = [b for b, _ in traced if b.journal_frames]
    # Paired batches share inputs and schedule and run back to back.
    slowdown = statistics.median(t.run_s / p.run_s
                                 for p, (t, _) in zip(plain, traced))
    metrics = {
        "core.solve_calls_per_perf": _ratio(solves, perfs),
        "core.solve_us_per_perf": _ratio(
            total("self_ns", "core.solve") / 1e3, perfs),
        "core.solve_hit_ratio": _ratio(sum(p.solve_hits for p in probes),
                                       solves),
        "core.solve_pool_depth_mean": _ratio(
            sum(p.solve_pool_depth for p in probes), solves),
        "core.join_calls_per_perf": _ratio(total("calls", "core.join"),
                                           perfs),
        "core.join_us_per_perf": _ratio(
            total("self_ns", "core.join") / 1e3, perfs),
        "core.wait_polls_per_perf": _ratio(
            sum(p.wait_polls for p in probes), perfs),
        "core.wait_us_per_perf": _ratio(
            sum(p.wait_ns for p in probes) / 1e3, perfs),
        "core.pool_wait_p50_us": percentile(pool_waits, 50),
        "body.self_us_per_perf": _ratio(total("self_ns", "body") / 1e3,
                                        perfs),
        "lang.compile_ms": statistics.median(
            b.compile_s for b, _ in traced) * 1e3,
        "runtime.commits_per_perf": _ratio(commits, perfs),
        "runtime.steps_per_perf": _ratio(
            sum(r.phase_calls.get("dispatch", 0) for r in reports), perfs),
        "runtime.settle_rounds_per_commit": _ratio(
            counter("settle_rounds"), commits),
        "runtime.waiters_polled_per_commit": _ratio(
            counter("waiters_polled"), commits),
        "runtime.candidates_per_query": _ratio(
            counter("candidates_seen"), counter("candidate_queries")),
        "runtime.board_depth_max": max(
            r.counters["board_depth_max"] for r in reports),
        "runtime.attributed_pct": 100 * _ratio(
            sum(r.attributed_ns for r in reports),
            sum(r.run_ns for r in reports)),
        "persist.journal_us_per_commit": per_commit_us(phase_ns("journal")),
        "persist.close_ms": (statistics.median(b.close_s for b in journaled)
                             * 1e3 if journaled else 0.0),
        "persist.frames_per_perf": _ratio(
            sum(b.journal_frames for b, _ in traced), perfs),
        "persist.bytes_per_perf": _ratio(
            sum(b.journal_bytes for b, _ in traced), perfs),
        "trace_overhead_pct": 100 * (slowdown - 1),
    }
    for phase in ("dispatch", "match", "commit", "settle", "timers"):
        covered = sum(p.covered_ns[phase] for p in probes)
        metrics[f"runtime.{phase}_self_us_per_commit"] = per_commit_us(
            phase_ns(phase) - covered)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    workload = workload_table()[name]
    plain, traced = run_batches(workload, seed, seconds, traced=bool(trace))
    measured = plain + [b for b, _ in traced]
    problems = [p for b in measured for p in b.problems]
    if trace:
        first_plain, first_traced = plain[0], traced[0][0]
        if first_plain.trace != first_traced.trace:
            problems.append("traced run's trace differs from the untraced "
                            "run's trace")
        metrics = per_layer(plain, traced)
        units = PER_LAYER_UNITS
        samples = {key: f"{len(traced)} traced batches" for key in metrics}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"{name}-seed{seed}.trace.json"
        trace_path.write_text(traced[0][1].chrome_trace())
        print(f"# spans of the first traced batch: {trace_path}")
    else:
        metrics, samples = end_to_end(plain)
        units = END_TO_END_UNITS
    attempted = sum(b.attempted for b in measured)
    failed = sum(b.failed for b in measured)
    print(f"# {name} seed={seed} trace={trace}: {len(plain)} untraced and "
          f"{len(traced)} traced batches, "
          f"{sum(b.performances for b in measured)} performances")
    for key, value in metrics.items():
        print(f"{name:<20} {key:<38} {value:>14.4f} {units[key]:<6} "
              f"({samples[key]})")
    print(f"{name:<20} {'fail_ratio':<38} {_ratio(failed, attempted):>14.4f} "
          f"{'ratio':<6} ({attempted} enroll calls)")
    for problem in problems[:10]:
        print(f"# CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process, untraced then traced."""
    results: dict[str, Any] = {}
    status = 0
    for name in workload_table():
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, check=False)
            lines = completed.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if completed.returncode != 0:
                print(completed.stderr, file=sys.stderr)
                status = 1
            try:
                result = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:   # the run crashed before its result
                result = None
            results.setdefault(name, {})[f"trace{trace}"] = result
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "results.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"# results written to {OUT_DIR / 'results.json'}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workload_table()))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
