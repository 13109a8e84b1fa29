"""Tests for the trace-invariant checkers."""

import re

import pytest

from repro.errors import VerificationError
from repro.runtime import EventKind, Scheduler, Tracer
from repro.scripts import run_broadcast
from repro.verification import (check_all, check_broadcast_delivery,
                                check_critical_sets,
                                check_no_cross_performance_comm,
                                check_performances_well_formed,
                                check_successive_activations,
                                performances_in)


def broadcast_trace(strategy="star", n=4, performances=1):
    from repro.scripts import make_broadcast
    from repro.scripts.broadcast import data_param_name, sender_role_name

    script = make_broadcast(n, strategy)
    scheduler = Scheduler(seed=2)
    instance = script.instance(scheduler)
    sender_role = sender_role_name(script)
    param = data_param_name(script, sender_role)

    def transmitter():
        for r in range(performances):
            yield from instance.enroll(sender_role, **{param: ("v", r)})

    def recipient(i):
        for _ in range(performances):
            yield from instance.enroll(("recipient", i))

    scheduler.spawn("T", transmitter())
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), recipient(i))
    scheduler.run()
    return scheduler.tracer, instance


def test_clean_run_passes_all_checks():
    tracer, instance = broadcast_trace(performances=3)
    report = check_all(tracer, instance.name)
    assert report["successive-activations"] == 3
    assert report["well-formed"] == 3
    assert report["performance-scoping"] > 0


def test_performances_in_lists_ids_in_order():
    tracer, instance = broadcast_trace(performances=2)
    ids = performances_in(tracer.events, instance.name)
    assert len(ids) == 2
    assert ids[0].endswith("p1")
    assert ids[1].endswith("p2")


def test_broadcast_delivery_checker_passes():
    tracer, instance = broadcast_trace(n=5)
    performance = performances_in(tracer.events, instance.name)[0]
    delivered = check_broadcast_delivery(tracer, performance, ("v", 0),
                                         count=5)
    assert delivered == 5


def test_broadcast_delivery_detects_wrong_value():
    tracer, instance = broadcast_trace(n=3)
    performance = performances_in(tracer.events, instance.name)[0]
    with pytest.raises(VerificationError):
        check_broadcast_delivery(tracer, performance, "some-other-value")


def test_broadcast_delivery_detects_missing_recipients():
    tracer, instance = broadcast_trace(n=3)
    performance = performances_in(tracer.events, instance.name)[0]
    with pytest.raises(VerificationError):
        check_broadcast_delivery(tracer, performance, ("v", 0), count=99)


def test_successive_activations_detects_forged_overlap():
    """Tampering with the trace to interleave performances is caught."""
    tracer = Tracer()
    tracer.emit(0, EventKind.PERFORMANCE_START, None, instance="i",
                performance="i/p1")
    tracer.emit(0, EventKind.ROLE_START, "A", instance="i",
                performance="i/p1", role="r")
    # p2 starts while p1's role is still open:
    tracer.emit(1, EventKind.PERFORMANCE_START, None, instance="i",
                performance="i/p2")
    with pytest.raises(VerificationError) as excinfo:
        check_successive_activations(tracer, "i")
    assert "successive-activations" in str(excinfo.value)


def test_well_formed_detects_role_without_enrollment():
    tracer = Tracer()
    tracer.emit(0, EventKind.PERFORMANCE_START, None, instance="i",
                performance="i/p1")
    tracer.emit(0, EventKind.ROLE_START, "A", instance="i",
                performance="i/p1", role="r")
    with pytest.raises(VerificationError) as excinfo:
        check_performances_well_formed(tracer, "i")
    assert "without an accepted enrollment" in str(excinfo.value)


def test_well_formed_detects_end_with_open_roles():
    tracer = Tracer()
    tracer.emit(0, EventKind.PERFORMANCE_START, None, instance="i",
                performance="i/p1")
    tracer.emit(0, EventKind.ENROLL_ACCEPT, "A", instance="i",
                performance="i/p1", role="r")
    tracer.emit(0, EventKind.ROLE_START, "A", instance="i",
                performance="i/p1", role="r")
    tracer.emit(1, EventKind.PERFORMANCE_END, None, instance="i",
                performance="i/p1")
    with pytest.raises(VerificationError) as excinfo:
        check_performances_well_formed(tracer, "i")
    assert "still active" in str(excinfo.value)


def test_well_formed_detects_double_start():
    tracer = Tracer()
    tracer.emit(0, EventKind.PERFORMANCE_START, None, instance="i",
                performance="i/p1")
    tracer.emit(1, EventKind.PERFORMANCE_START, None, instance="i",
                performance="i/p1")
    with pytest.raises(VerificationError):
        check_performances_well_formed(tracer, "i")


def test_cross_performance_comm_never_happens_in_engine_runs():
    tracer, _ = broadcast_trace(strategy="pipeline", performances=2)
    assert check_no_cross_performance_comm(tracer) > 0


def test_checkers_scope_to_instance():
    """Two instances in one scheduler are checked independently."""
    from repro.scripts import make_star_broadcast

    script = make_star_broadcast(2)
    scheduler = Scheduler()
    first = script.instance(scheduler, name="one")
    second = script.instance(scheduler, name="two")

    def driver(instance, value):
        yield from instance.enroll("sender", data=value)

    def listener(instance, i):
        yield from instance.enroll(("recipient", i))

    for label, instance in (("a", first), ("b", second)):
        scheduler.spawn(f"T{label}", driver(instance, label))
        for i in (1, 2):
            scheduler.spawn(f"R{label}{i}", listener(instance, i))
    scheduler.run()
    assert check_successive_activations(scheduler.tracer, "one") == 1
    assert check_successive_activations(scheduler.tracer, "two") == 1
    assert check_successive_activations(scheduler.tracer) == 2


@pytest.mark.parametrize("strategy", ["star", "pipeline", "tree",
                                      "star_nondet"])
def test_all_strategies_satisfy_generic_invariants(strategy):
    tracer, instance = broadcast_trace(strategy=strategy, n=6)
    check_all(tracer, instance.name)


# ---------------------------------------------------------------------------
# Faults: crashes close roles, aborts end performances
# ---------------------------------------------------------------------------

def forged(*events):
    """A tracer of instance ``i`` holding ``(kind, process, performance,
    role)`` events, one per time step."""
    tracer = Tracer()
    for time, (kind, process, performance, role) in enumerate(events):
        tracer.emit(time, kind, process, instance="i",
                    performance=f"i/{performance}", role=role)
    return tracer


START, ACCEPT = EventKind.PERFORMANCE_START, EventKind.ENROLL_ACCEPT
ROLE_START, ROLE_END = EventKind.ROLE_START, EventKind.ROLE_END
CRASH, END = EventKind.ROLE_CRASH, EventKind.PERFORMANCE_END
ABORT = EventKind.PERFORMANCE_ABORT


def test_crashed_role_is_closed_and_refilled_by_a_fresh_accept():
    tracer = forged((START, None, "p1", None),
                    (ACCEPT, "A", "p1", "r"), (ROLE_START, "A", "p1", "r"),
                    (CRASH, "A", "p1", "r"),
                    (ACCEPT, "B", "p1", "r"), (ROLE_START, "B", "p1", "r"),
                    (ROLE_END, "B", "p1", "r"), (END, None, "p1", None),
                    (START, None, "p2", None))
    report = check_all(tracer, "i")
    assert report["successive-activations"] == 2
    assert report["well-formed"] == 2


def test_refill_of_a_crashed_role_needs_a_fresh_accept():
    tracer = forged((START, None, "p1", None),
                    (ACCEPT, "A", "p1", "r"), (ROLE_START, "A", "p1", "r"),
                    (CRASH, "A", "p1", "r"), (ROLE_START, "B", "p1", "r"))
    with pytest.raises(VerificationError,
                       match="without an accepted enrollment"):
        check_performances_well_formed(tracer, "i")


def test_abort_ends_its_performance_and_closes_its_roles():
    # The abort interrupts survivor B, whose role never ends.
    tracer = forged((START, None, "p1", None),
                    (ACCEPT, "A", "p1", "r"), (ROLE_START, "A", "p1", "r"),
                    (ACCEPT, "B", "p1", "s"), (ROLE_START, "B", "p1", "s"),
                    (CRASH, "A", "p1", "r"), (ABORT, None, "p1", None),
                    (START, None, "p2", None))
    report = check_all(tracer, "i")
    assert report["successive-activations"] == 2
    assert report["well-formed"] == 2


@pytest.mark.parametrize("first, second", [(END, ABORT), (ABORT, END),
                                           (ABORT, ABORT)])
def test_performance_that_ends_twice_is_rejected(first, second):
    tracer = forged((START, None, "p1", None), (first, None, "p1", None),
                    (second, None, "p1", None))
    with pytest.raises(VerificationError, match="ended twice"):
        check_performances_well_formed(tracer, "i")


def test_role_that_neither_ends_nor_crashes_blocks_the_next_performance():
    tracer = forged((START, None, "p1", None),
                    (ACCEPT, "A", "p1", "r"), (ROLE_START, "A", "p1", "r"),
                    (ACCEPT, "B", "p1", "s"), (ROLE_START, "B", "p1", "s"),
                    (CRASH, "B", "p1", "s"), (START, None, "p2", None))
    with pytest.raises(VerificationError,
                       match=re.escape("""roles ["'r'"] of i/p1""")):
        check_successive_activations(tracer, "i")


# ---------------------------------------------------------------------------
# Critical sets: a delayed performance starts on one of them
# ---------------------------------------------------------------------------

def critical_trace(initiation, critical_sets, accepted, binding):
    """Instance ``i`` accepting ``accepted`` into ``i/p1``, which starts
    with ``binding`` (role id -> process)."""
    tracer = Tracer()
    tracer.emit(0, EventKind.INSTANCE_CREATED, None, instance="i",
                script="s", initiation=initiation, termination="delayed",
                critical_sets=critical_sets)
    for role in accepted:
        tracer.emit(1, ACCEPT, "P", instance="i", performance="i/p1",
                    role=role)
    tracer.emit(1, START, None, instance="i", performance="i/p1",
                binding={repr(role): "P" for role in binding})
    return tracer


def test_delayed_start_covering_a_critical_set_is_counted():
    tracer = critical_trace("delayed", [["a", "b"], ["a", ("fam", 1)]],
                            ["a", "b", ("fam", 1)], ["a", ("fam", 1)])
    assert check_critical_sets(tracer, "i") == 1
    assert check_all(tracer, "i")["critical-sets"] == 1


def test_delayed_start_covering_no_critical_set_is_rejected():
    tracer = critical_trace("delayed", [["a", "b"], ["c"]],
                            ["a", "b", "c"], ["a"])
    with pytest.raises(VerificationError,
                       match=re.escape("i/p1 started with roles [\"'a'\"], "
                                       "covering none of the critical sets "
                                       "[['a', 'b'], ['c']]")):
        check_critical_sets(tracer, "i")


@pytest.mark.parametrize("initiation, accepted, binding, checked", [
    ("immediate", [], [], 0),
    ("immediate", ["a"], ["a"], 0),
    ("delayed", [], [], 0),
    ("delayed", ["a", "b", ("grp", 1)], ["a", "b", ("grp", 1)], 1),
    ("delayed", ["a", "b"], ["a", "b"], 1),
], ids=["immediate-empty", "immediate-uncovered", "delayed-empty",
        "open-members", "open-none"])
def test_immediate_starts_and_open_family_names_are_skipped(
        initiation, accepted, binding, checked):
    tracer = critical_trace(initiation, [["a", "b", "grp"]], accepted,
                            binding)
    tracer.emit(2, ACCEPT, "Q", instance="i", performance="i/p2", role="b")
    assert check_critical_sets(tracer, "i") == checked


@pytest.mark.parametrize("strategy, checked", [("star", 3), ("pipeline", 0)])
def test_engine_runs_start_on_critical_sets(strategy, checked):
    tracer, instance = broadcast_trace(strategy=strategy, performances=3)
    assert check_critical_sets(tracer, instance.name) == checked
