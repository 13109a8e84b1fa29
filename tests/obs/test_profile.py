"""Tests for the hot-path profiler: reports, exports, and zero-distortion.

The contracts under test, in the order the module promises them:

- the default JSON report is a pure function of the seed (byte-stable
  across runs), and the deterministic tick clock extends that to the
  wall section, flamegraph and Chrome lane;
- attaching the profiler never perturbs the run — the trace of a
  profiled run is byte-identical to an unprofiled one, on the indexed
  and the full-scan board, with and without a match filter;
- an observer receives ``on_phase`` / ``on_settle`` exactly when its
  class defines them;
- the exports are well-formed for their consumers (speedscope collapsed
  stacks, Perfetto trace events);
- the diff explainer names the phase whose share grew.
"""

import hashlib
import json
import pathlib

import pytest

from repro.faults.soak import run_chaos_broadcast, run_chaos_chatroom
from repro.obs import (PHASES, Profiler, build_spans, diff_attributions,
                       dump_chrome_trace, profile_scenario, tick_clock)
from repro.runtime import (EventKind, IndexedBoard, OracleBoard, Receive,
                           Scheduler, Select, Send, format_trace)
from repro.runtime.instrument import Sink

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_pingpong(profiler=None, rounds=3):
    scheduler = Scheduler(seed=7, board=IndexedBoard())
    if profiler is not None:
        profiler.attach(scheduler)

    def left():
        for _ in range(rounds):
            yield Send("right", "ball")
            yield Receive("right")

    def right():
        for _ in range(rounds):
            yield Receive("left")
            yield Send("left", "ball")

    scheduler.spawn("left", left())
    scheduler.spawn("right", right())
    scheduler.run()
    return scheduler


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_default_report_is_byte_stable_across_runs():
    _, first = profile_scenario("demo-broadcast", seed=3, n=6)
    _, second = profile_scenario("demo-broadcast", seed=3, n=6)
    dump = lambda r: json.dumps(r.to_dict(), sort_keys=True)  # noqa: E731
    assert dump(first) == dump(second)


def test_deterministic_clock_pins_every_export():
    _, first = profile_scenario("demo-lock", seed=1, n=8, deterministic=True)
    _, second = profile_scenario("demo-lock", seed=1, n=8,
                                 deterministic=True)
    assert (json.dumps(first.to_dict(wall=True), sort_keys=True)
            == json.dumps(second.to_dict(wall=True), sort_keys=True))
    assert first.flame_lines() == second.flame_lines()
    assert first.chrome_events() == second.chrome_events()


def test_default_report_omits_wall_but_wall_flag_adds_it():
    _, report = profile_scenario("demo-broadcast", seed=0, n=5)
    assert "wall" not in report.to_dict()
    wall = report.to_dict(wall=True)["wall"]
    assert wall["clock"] == "perf_counter_ns"
    assert wall["run_ns"] == report.run_ns
    assert set(wall["phases"]) == set(PHASES)


# ---------------------------------------------------------------------------
# Zero distortion: profiled runs leave no trace in the trace
# ---------------------------------------------------------------------------

def test_profiled_trace_is_byte_identical_to_unprofiled():
    plain = run_pingpong()
    profiled = run_pingpong(Profiler())
    assert format_trace(profiled.tracer) == format_trace(plain.tracer)
    assert (dump_chrome_trace(build_spans(profiled.tracer.snapshot()))
            == dump_chrome_trace(build_spans(plain.tracer.snapshot())))


def test_profiled_scenario_trace_matches_unprofiled():
    from repro.obs import run_scenario
    plain = run_scenario("demo-election", seed=5, n=4)
    profiled = run_scenario("demo-election", seed=5, n=4,
                            profiler=Profiler())
    assert (format_trace(profiled.scheduler.tracer)
            == format_trace(plain.scheduler.tracer))


def test_attach_joins_existing_observers():
    from repro.obs import run_scenario
    profiler = Profiler()
    run = run_scenario("demo-broadcast", seed=0, n=5, profiler=profiler)
    # The metrics attached first still saw the run, and hear each
    # commit before the profiler does.
    assert run.metrics.to_dict()["metrics"]["comms_total"]["value"] > 0
    assert [hook.__self__ for hook in run.scheduler._commit_hooks] == [
        run.metrics, profiler]
    assert profiler.report().commits > 0


def test_capability_flags_only_arm_for_profiling_sinks():
    scheduler = Scheduler(seed=0, board=IndexedBoard())

    class CommitsOnly(Sink):
        def on_commit(self, time, sender, receiver):
            pass

    scheduler.observe(CommitsOnly())
    assert scheduler._commit_hooks and not scheduler._phase_hooks
    # A profiler attached beside it arms the phase and settle hooks.
    Profiler().attach(scheduler)
    assert len(scheduler._commit_hooks) == 2
    assert scheduler._phase_hooks and scheduler._settle_hooks


# ---------------------------------------------------------------------------
# The scan path: full-scan board or match filter, profiled and not
# ---------------------------------------------------------------------------

SCAN_ROUNDS = 3


def build_pingpong(scheduler, n):
    def left(i):
        for _ in range(SCAN_ROUNDS):
            yield Send(("R", i), i)
            yield Receive(("R", i))

    def right(i):
        for _ in range(SCAN_ROUNDS):
            yield Receive(("L", i))
            yield Send(("L", i), i)

    for i in range(n):
        scheduler.spawn(("L", i), left(i))
        scheduler.spawn(("R", i), right(i))


def build_star(scheduler, n):
    def hub():
        for _ in range(SCAN_ROUNDS):
            for i in range(n):
                yield Send(("leaf", i), i)

    def leaf(i):
        for _ in range(SCAN_ROUNDS):
            yield Receive("hub")

    scheduler.spawn("hub", hub())
    for i in range(n):
        scheduler.spawn(("leaf", i), leaf(i))


def build_fanin(scheduler, n):
    def producer(i):
        yield Send("hub", i, tag="a" if i % 2 else "b")

    def hub():
        for _ in range(n):
            yield Select((Receive(tag="a"), Receive(tag="b")))

    scheduler.spawn("hub", hub())
    for i in range(n):
        scheduler.spawn(("prod", i), producer(i))


def comm_count(events):
    return sum(event.kind is EventKind.COMM for event in events)


@pytest.mark.parametrize("build", [build_pingpong, build_star, build_fanin],
                         ids=["pingpong", "star", "fanin"])
def test_full_scan_board_profiled_trace_matches_unprofiled(build):
    traces = []
    for profiler in (None, Profiler()):
        scheduler = Scheduler(seed=5, board=OracleBoard())
        if profiler is not None:
            profiler.attach(scheduler)
        build(scheduler, 12)
        scheduler.run()
        traces.append(format_trace(scheduler.tracer))
    assert traces[1] == traces[0]
    report = profiler.report()
    assert report.matcher["board"] == "OracleBoard"
    assert report.commits == comm_count(scheduler.tracer.snapshot()) > 0


class ProfiledJournal:
    """A :class:`Profiler` riding the chaos runners' ``journal=`` protocol."""

    def __init__(self):
        self.profiler = Profiler()
        self.scheduler = None

    def attach(self, scheduler):
        self.scheduler = scheduler
        self.profiler.attach(scheduler)

    def finish(self, outcome):
        pass


#: SHA-256 of seeds 0-19's unprofiled traces, concatenated in seed order.
#: Profiled and unprofiled runs share the filtered draw, so only a pinned
#: digest catches a change to it; a deliberate one regenerates these.
CHAOS_TRACES_SHA256 = {
    "broadcast":
        "dbea0a91c5882a7a338fdc19ced6f54c20eed14a214938dbaf28f377fdf21ad0",
    "chatroom":
        "4c71d64d4d0b7f426fa12264d4e1176e8d2123abc941517d57907cf3b1213e15",
}


@pytest.mark.parametrize("name", sorted(CHAOS_TRACES_SHA256))
def test_match_filtered_profiled_trace_matches_unprofiled(name):
    runner = {"broadcast": run_chaos_broadcast,
              "chatroom": run_chaos_chatroom}[name]
    digest = hashlib.sha256()
    for seed in range(20):
        plain = runner(seed)
        journal = ProfiledJournal()
        profiled = runner(seed, journal=journal)
        assert journal.scheduler.match_filter is not None
        assert profiled.trace == plain.trace, seed
        assert (journal.profiler.report().commits
                == comm_count(profiled.events)), seed
        digest.update(plain.trace.encode())
    assert digest.hexdigest() == CHAOS_TRACES_SHA256[name]


class SettleOnly(Sink):
    """Defines ``on_settle`` alone.  Its instance-level ``on_phase`` is
    invisible to the class-level check ``observe`` makes, so it records
    any phase the kernel sends without the observer asking for it."""

    def __init__(self):
        self.settles = []
        self.phases = []
        self.on_phase = lambda phase, ns: self.phases.append(phase)

    def attach(self, scheduler):
        scheduler.observe(self)

    def on_settle(self, time, commits, *counters):
        self.settles.append(commits)


class PhaseOnly(Sink):
    """The mirror image: ``on_phase`` defined, ``on_settle`` caught."""

    def __init__(self):
        self.settles = []
        self.phases = []
        self.on_settle = (lambda time, commits, *counters:
                          self.settles.append(commits))

    def attach(self, scheduler):
        scheduler.observe(self)

    def on_phase(self, phase, ns):
        self.phases.append(phase)


def test_settle_only_sink_gets_one_call_per_settle():
    sink = SettleOnly()
    scheduler = run_pingpong(sink)
    assert scheduler._settle_hooks and not scheduler._phase_hooks
    profiler = Profiler()
    run_pingpong(profiler)
    assert len(sink.settles) == profiler.settles == 6
    assert sum(sink.settles) == profiler.commits == 6
    assert sink.phases == []


def test_phase_only_sink_gets_no_settle_counters():
    sink = PhaseOnly()
    scheduler = run_pingpong(sink)
    assert scheduler._phase_hooks and not scheduler._settle_hooks
    assert sink.settles == []
    assert {"dispatch", "match", "commit", "settle", "run"} <= set(sink.phases)


# ---------------------------------------------------------------------------
# Report contents
# ---------------------------------------------------------------------------

def test_counters_and_attribution_sanity():
    profiler = Profiler()
    run_pingpong(profiler, rounds=4)
    report = profiler.report(scenario="pingpong", seed=7, n=1)
    assert report.commits == 8            # 2 directions x 4 rounds
    assert report.steps == report.phase_calls["dispatch"]
    assert report.counters["candidate_queries"] > 0
    assert report.counters["candidates_seen"] >= report.commits
    assert report.matcher["board"] == "IndexedBoard"
    assert report.matcher["index_pairs_max"] >= 1
    assert 0 < report.attributed_pct <= 100.0
    assert report.attributed_ns <= report.run_ns


def test_per_commit_rates_divide_by_commits():
    _, report = profile_scenario("demo-broadcast", seed=0, n=5)
    assert report.per_commit["candidate_queries"] == pytest.approx(
        report.counters["candidate_queries"] / report.commits, abs=1e-3)


@pytest.mark.parametrize("name", ["demo-broadcast", "demo-lock",
                                  "demo-election"])
def test_default_report_matches_golden_file(name):
    """Counters, per-commit rates, phase call counts and matcher
    introspection are pure functions of the seed; a change that moves any
    of them must be deliberate (regenerate with ``python -m repro profile
    NAME --seed 3 --n 20 --json FILE``)."""
    _, report = profile_scenario(name, seed=3, n=20)
    golden = GOLDEN / f"profile_{name.replace('-', '_')}.json"
    assert (json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
            == golden.read_text())


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def test_flame_lines_are_valid_collapsed_stacks():
    _, report = profile_scenario("demo-broadcast", seed=0, n=5,
                                 deterministic=True)
    lines = report.flame_lines()
    assert lines
    total = 0
    for line in lines:
        stack, _, weight = line.rpartition(" ")
        assert stack and not stack.endswith(";")
        assert all(frame for frame in stack.split(";"))
        assert weight.isdigit() and int(weight) > 0
        total += int(weight)
    # Root self-time fills the gap: total width == measured run time.
    assert total == report.run_ns
    assert any(line.startswith("scheduler.run;settle;match ")
               for line in lines)


def test_chrome_events_tile_the_run_wall():
    _, report = profile_scenario("demo-lock", seed=0, n=8,
                                 deterministic=True)
    events = report.chrome_events()
    assert events[0]["ph"] == "M"
    assert events[0]["args"]["name"] == "kernel profile (wall)"
    xs = [e for e in events if e["ph"] == "X"]
    cursor = 0
    for event in xs:
        assert event["ts"] == cursor     # phases laid end to end
        assert event["dur"] > 0
        cursor += event["dur"]
    assert cursor == report.run_ns
    assert {e["name"] for e in xs} <= set(PHASES) | {"(unattributed)"}


def test_merged_chrome_document_stays_loadable():
    from repro.obs import merge_chrome_events, to_chrome_trace
    run, report = profile_scenario("demo-broadcast", seed=0, n=5,
                                   deterministic=True)
    document = to_chrome_trace(build_spans(run.scheduler.tracer.snapshot()))
    merged = json.loads(merge_chrome_events(document,
                                            report.chrome_events()))
    cats = {e.get("cat") for e in merged["traceEvents"]}
    assert "profile" in cats             # the profiler lane rode along
    span_events = [e for e in merged["traceEvents"]
                   if e.get("cat") != "profile" and e["ph"] != "M"]
    assert span_events                   # ...without displacing the spans


# ---------------------------------------------------------------------------
# The diff explainer
# ---------------------------------------------------------------------------

def _report_doc(pcts, rates, scenario="demo", with_wall=True):
    phases = {p: {"ns": int(pcts.get(p, 0) * 100),
                  "pct": pcts.get(p, 0.0)} for p in PHASES}
    doc = {"scenario": scenario, "per_commit": rates}
    if with_wall:
        doc["wall"] = {"phases": phases}
    return doc


def test_diff_names_the_grown_phase():
    old = _report_doc({"match": 10.0, "dispatch": 40.0},
                      {"candidates_seen": 2.0})
    new = _report_doc({"match": 35.0, "dispatch": 30.0},
                      {"candidates_seen": 50.0})
    lines = diff_attributions(old, new)
    assert len(lines) == 1
    assert "'match' grew 10.0% -> 35.0%" in lines[0]
    assert "candidates_seen/commit 2.0 -> 50.0" in lines[0]


def test_diff_reports_no_growth():
    doc = _report_doc({"match": 10.0}, {"candidates_seen": 2.0})
    lines = diff_attributions(doc, doc)
    assert len(lines) == 1
    assert "no phase share grew" in lines[0]


def test_diff_consumes_bench_sweep_shape():
    old = {"shapes": {"fanin": {"500": _report_doc(
        {"match": 10.0}, {"candidates_seen": 10.0}, scenario="fanin")}}}
    new = {"shapes": {"fanin": {"500": _report_doc(
        {"match": 60.0}, {"candidates_seen": 250.0}, scenario="fanin")}}}
    lines = diff_attributions(old, new)
    assert lines and lines[0].startswith("fanin N=500:")


def test_diff_names_the_phase_that_fell():
    """A faster run names the largest drop, not the share that grew."""
    def doc(dispatch_ms, commit_ms, run_ms, rounds):
        phases = {"dispatch": dispatch_ms, "commit": commit_ms}
        return {"scenario": "demo-broadcast",
                "per_commit": {"dispatch_rounds": rounds},
                "wall": {"clock": "perf_counter_ns", "phases": {
                    p: {"ns": int(ms * 1e6), "pct": round(100 * ms / run_ms, 2)}
                    for p, ms in phases.items()}}}

    lines = diff_attributions(doc(789.0, 21.6, 834.0, 3.0),
                              doc(518.0, 24.6, 569.0, 2.0))
    assert lines == ["demo-broadcast: phase 'dispatch' fell 789.0 ms -> "
                     "518.0 ms, 101.12% of the 268.0 ms the phases saved; "
                     "dispatch_rounds/commit 3.0 -> 2.0"]


def _runs(dispatch_ms, commit_ms):
    """One planted wall report per (dispatch, commit) pair of timings."""
    docs = []
    for dispatch, commit in zip(dispatch_ms, commit_ms):
        run_ms = dispatch + commit + 10.0
        docs.append({"scenario": "demo-broadcast",
                     "per_commit": {"dispatch_rounds": 2.0},
                     "wall": {"clock": "perf_counter_ns", "phases": {
                         p: {"ns": int(ms * 1e6),
                             "pct": round(100 * ms / run_ms, 2)}
                         for p, ms in (("dispatch", dispatch),
                                       ("commit", commit))}}})
    return docs


def test_diff_names_only_moves_beyond_the_runs_spread():
    """Per phase, the medians must differ by more than the larger IQR."""
    old = _runs([700.0, 640.0, 760.0], [20.0, 21.0, 22.0])
    # dispatch's median falls 700 -> 500 ms; each side spreads 60 ms.
    faster = _runs([500.0, 440.0, 560.0], [21.0, 20.0, 22.0])
    assert diff_attributions(old, faster) == [
        "demo-broadcast: phase 'dispatch' fell 700.0 ms -> 500.0 ms, "
        "100.0% of the 200.0 ms the phases saved"]
    # The same medians 40 ms apart, inside the 60 ms spread: no finding,
    # although a one-run diff of the same reports names dispatch.
    noisy = _runs([660.0, 560.0, 760.0], [21.0, 22.0, 20.0])
    assert diff_attributions(old, noisy) == [
        "demo-broadcast: no phase moved beyond the runs' spread (largest "
        "move: 'dispatch' 700.0 ms -> 660.0 ms, spread 100.0 ms)"]
    assert "fell" in diff_attributions(old[0], noisy[0])[0]
    # A share that grows within the spread is not named either.
    same = _runs([700.0, 640.0, 760.0], [21.0, 22.0, 20.0])
    assert diff_attributions(old, same) == [
        "demo-broadcast: no phase moved beyond the runs' spread (largest "
        "move: 'commit' 2.78% -> 2.87%, spread 0.37 pts)"]


def test_diff_skips_labels_without_wall():
    old = _report_doc({}, {}, with_wall=False)
    new = _report_doc({"match": 50.0}, {})
    assert diff_attributions(old, new) == []
