"""The benchmark's own tests: every workload at small N.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
They assert the layer predictions of ``README.md`` as counts, which do
not depend on the machine: no ``solve`` on the pipeline, no joins on the
delayed workloads, no journal frames on the broadcasts.
"""

from __future__ import annotations

import json

import pytest

import run
from layers import LayerProbe
from repro.runtime import Receive
from workloads import run_batch, workload_table

SMALL = workload_table(n=8, performances=3, ops=12)


@pytest.fixture(scope="module", params=sorted(SMALL))
def measured(request):
    """One untraced and one traced batch of a small workload."""
    name = request.param
    plain, traced = run.run_batches(SMALL[name], seed=7, seconds=0,
                                 traced=True)
    return name, plain, traced, run.per_layer(plain, traced)


def test_outputs_correct_and_traces_equal(measured):
    _, plain, traced, _ = measured
    batches = plain + [b for b, _ in traced]
    for batch in batches:
        assert batch.problems == []
        assert batch.failed == 0
        assert batch.attempted == len(batch.enroll_ns) > 0
    assert plain[0].trace == traced[0][0].trace


def test_layer_predictions_hold_as_counts(measured):
    name, _, _, metrics = measured
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    if name == "pipeline-immediate":
        assert metrics["core.solve_calls_per_perf"] == 0
        assert metrics["core.join_calls_per_perf"] > 0
    else:
        assert metrics["core.join_calls_per_perf"] == 0
        assert metrics["core.solve_calls_per_perf"] > 0
    if name == "fig5-locks":
        assert metrics["persist.frames_per_perf"] > 0
        assert metrics["lang.compile_ms"] > 0
        assert metrics["core.solve_pool_depth_mean"] <= 5
    else:
        assert metrics["persist.frames_per_perf"] == 0
    if name == "star-delayed":
        assert metrics["core.solve_hit_ratio"] < 1
    assert metrics["runtime.commits_per_perf"] > 0
    assert metrics["core.wait_polls_per_perf"] > 0
    assert metrics["body.self_us_per_perf"] > 0


def test_end_to_end_metrics_are_positive(measured):
    _, plain, _, _ = measured
    metrics, samples = run.end_to_end(plain)
    assert set(metrics) == set(run.END_TO_END_UNITS) == set(samples)
    assert all(value > 0 for value in metrics.values())
    assert metrics["enroll_p50_us"] <= metrics["enroll_p99_us"]


def test_chrome_trace_merges_profiler_lane():
    probe = LayerProbe()
    run_batch(SMALL["star-delayed"], seed=3, index=0, probe=probe)
    document = json.loads(probe.chrome_trace())
    events = document["traceEvents"]
    names = {e["name"] for e in events}
    assert {"core.solve", "body", "enroll", "performance"} <= names
    assert "dispatch" in names   # the profiler lane
    assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")


def test_failed_run_counts_every_enroll_as_failed():
    star = SMALL["star-delayed"]

    def stuck(rng, seed, wrap):
        prepared = star(rng, seed, wrap)

        def waits_forever():
            yield Receive("nobody")
        prepared.scheduler.spawn("stuck", waits_forever())
        return prepared

    batch = run_batch(stuck, seed=1, index=0)
    assert batch.failed == batch.attempted > 0
    assert any("DeadlockError" in p for p in batch.problems)


def test_wrong_output_is_a_failed_enroll():
    star = SMALL["star-delayed"]

    def corrupted(rng, seed, wrap):
        prepared = star(rng, seed, wrap)
        check = prepared.check

        def check_after_corruption():
            process, start, end, _ = prepared.calls[0]
            prepared.calls[0] = (process, start, end, {"data": "wrong"})
            return check()
        prepared.check = check_after_corruption
        return prepared

    batch = run_batch(corrupted, seed=1, index=0)
    assert batch.failed == 1
