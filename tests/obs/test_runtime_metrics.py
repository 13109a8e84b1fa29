"""Tests for the RuntimeMetrics sink: live hooks and post-hoc replay."""

from repro.faults import FaultPlan
from repro.net import NetworkTransport, star
from repro.obs import RuntimeMetrics, run_scenario
from repro.runtime import Scheduler
from repro.scripts import make_star_broadcast


def run_instrumented(seed=0, n=3, transport=False):
    scheduler = Scheduler(seed=seed)
    net = None
    if transport:
        placement = {"T": "hub"}
        placement.update({("R", i): ("leaf", i) for i in range(1, n + 1)})
        net = NetworkTransport(star(n), placement)
        scheduler.transport = net
    metrics = RuntimeMetrics().attach(scheduler, net)

    script = make_star_broadcast(n)
    instance = script.instance(scheduler, name="m")

    def transmitter():
        yield from instance.enroll("sender", data="x")

    def recipient(i):
        yield from instance.enroll(("recipient", i))

    scheduler.spawn("T", transmitter())
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), recipient(i))
    scheduler.run()
    return scheduler, metrics


def test_scheduler_starts_with_no_observers():
    # Empty hook lists: every guarded call site skips its callbacks.
    scheduler = Scheduler(seed=0)
    assert not (scheduler._offer_hooks or scheduler._commit_hooks
                or scheduler._decision_hooks or scheduler._phase_hooks
                or scheduler._settle_hooks)
    net = NetworkTransport(star(2), {"T": "hub"})
    assert not net._message_hooks
    RuntimeMetrics().attach(scheduler, net)
    assert scheduler._offer_hooks and scheduler._commit_hooks
    assert scheduler._decision_hooks and net._message_hooks
    assert not (scheduler._phase_hooks or scheduler._settle_hooks)


def test_event_derived_counters():
    _, metrics = run_instrumented(n=3)
    registry = metrics.registry
    assert registry.counter("comms_total").value == 3
    assert registry.counter("processes_spawned").value == 4
    assert registry.counter("processes_done").value == 4
    assert registry.counter("enrollments_requested").value == 4
    assert registry.counter("performances_started").value == 1
    assert registry.counter("performances_completed").value == 1
    assert registry.histogram("enroll_wait").count == 4
    assert metrics.performance_spans.keys() == {"m/p1"}


def test_match_latency_and_board_gauges_from_hooks():
    _, metrics = run_instrumented(n=3)
    latency = metrics.registry.histogram("rendezvous_match_latency")
    assert latency.count > 0
    assert metrics.registry.gauge("board_size").samples > 0
    assert metrics.registry.gauge("waiter_depth").samples > 0
    # Every depth and index gauge is sampled at the same commits.
    samples = {metrics.registry.gauge(name).samples
               for name in ("board_size", "waiter_depth",
                            "match_index_pairs", "match_index_dirty_events",
                            "match_cache_hits", "match_swept_pairs")}
    assert samples == {metrics.registry.counter("comms_total").value}


def test_transport_message_metrics():
    _, metrics = run_instrumented(n=3, transport=True)
    registry = metrics.registry
    assert registry.counter("messages_total").value == 3
    assert registry.histogram("message_latency").count == 3
    assert registry.histogram("message_latency").max >= 1.0


def test_fault_and_crash_counters():
    scheduler = Scheduler(seed=0)
    metrics = RuntimeMetrics().attach(scheduler)
    FaultPlan().crash(1.0, "A").install(scheduler)

    def victim():
        from repro.runtime import Delay
        yield Delay(10)

    scheduler.spawn("A", victim())
    scheduler.run()
    assert metrics.registry.counter("faults_total", label="crash").value == 1
    assert metrics.registry.counter("processes_killed").value == 1


def test_replay_recovers_event_derived_metrics():
    scheduler, live = run_instrumented(n=3)
    replayed = RuntimeMetrics().replay(scheduler.tracer.snapshot())
    live_dict = live.registry.to_dict()
    replayed_dict = replayed.registry.to_dict()
    for hook_only in ("rendezvous_match_latency", "board_size",
                      "waiter_depth", "match_index_pairs",
                      "match_index_dirty_events", "match_cache_hits",
                      "match_swept_pairs"):
        live_dict.pop(hook_only, None)
    assert replayed_dict == live_dict
    assert replayed.performance_spans == live.performance_spans


def test_scenarios_expose_required_metrics():
    run = run_scenario("demo-lock", seed=0)
    registry = run.metrics.registry
    assert "rendezvous_match_latency" in registry
    assert registry.histogram("performance_duration").count > 0
    assert run.metrics.performance_spans
    text = "\n".join(run.metrics.summary_lines())
    assert "rendezvous_match_latency" in text
    assert "per-performance durations:" in text
