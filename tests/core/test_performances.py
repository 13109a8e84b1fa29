"""Performance lifecycle semantics: Figures 1 and 2, policies, successive
activations."""

import pytest

from repro.core import (Initiation, Mode, Param, Ref, ScriptDef, Termination)
from repro.errors import DeadlockError
from repro.runtime import Delay, EventKind, GetTime, Scheduler

from .helpers import enrolling, make_pair_script


def test_delayed_initiation_blocks_until_all_enrolled():
    """No role body starts before every critical role is enrolled."""
    script = ScriptDef("sync3", initiation=Initiation.DELAYED,
                       termination=Termination.DELAYED)
    starts = {}

    for role_name in ("p", "q", "r"):
        def body(ctx, _name=role_name):
            t = yield GetTime()
            starts[_name] = t
        script.add_role(role_name, body)

    scheduler = Scheduler()
    instance = script.instance(scheduler)

    def late_enroller(role, delay):
        yield Delay(delay)
        yield from instance.enroll(role)

    scheduler.spawn("A", late_enroller("p", 0))
    scheduler.spawn("B", late_enroller("q", 10))
    scheduler.spawn("C", late_enroller("r", 25))
    scheduler.run()
    # All roles started only when the last enroller (t=25) arrived.
    assert starts == {"p": 25.0, "q": 25.0, "r": 25.0}


def test_immediate_initiation_runs_roles_as_they_arrive():
    script = ScriptDef("solo", initiation=Initiation.IMMEDIATE,
                       termination=Termination.IMMEDIATE)
    starts = {}

    for role_name in ("p", "q"):
        def body(ctx, _name=role_name):
            t = yield GetTime()
            starts[_name] = t
        script.add_role(role_name, body)

    scheduler = Scheduler()
    instance = script.instance(scheduler)

    def enroller(role, delay):
        yield Delay(delay)
        yield from instance.enroll(role)

    scheduler.spawn("A", enroller("p", 0))
    scheduler.spawn("B", enroller("q", 10))
    scheduler.run()
    assert starts == {"p": 0.0, "q": 10.0}


def test_delayed_termination_frees_all_together():
    """Even a role that finishes early stays in the script until all end."""
    script = ScriptDef("s", initiation=Initiation.DELAYED,
                       termination=Termination.DELAYED)
    freed = {}

    def quick(ctx):
        yield from ()

    def slow(ctx):
        yield Delay(50)

    script.add_role("quick", quick)
    script.add_role("slow", slow)

    scheduler = Scheduler()
    instance = script.instance(scheduler)

    def enroller(role):
        yield from instance.enroll(role)
        freed[role] = (yield GetTime())

    scheduler.spawn("A", enroller("quick"))
    scheduler.spawn("B", enroller("slow"))
    scheduler.run()
    assert freed == {"quick": 50.0, "slow": 50.0}


def test_immediate_termination_frees_each_as_it_finishes():
    script = ScriptDef("s", initiation=Initiation.DELAYED,
                       termination=Termination.IMMEDIATE)
    freed = {}

    def quick(ctx):
        yield from ()

    def slow(ctx):
        yield Delay(50)

    script.add_role("quick", quick)
    script.add_role("slow", slow)

    scheduler = Scheduler()
    instance = script.instance(scheduler)

    def enroller(role):
        yield from instance.enroll(role)
        freed[role] = (yield GetTime())

    scheduler.spawn("A", enroller("quick"))
    scheduler.spawn("B", enroller("slow"))
    scheduler.run()
    assert freed["quick"] == 0.0
    assert freed["slow"] == 50.0


def test_figure1_consecutive_performances():
    """Figure 1: D's enrollment as p waits for *all* of A, B, C to finish,
    even though A (the first p) finished long before."""
    script = ScriptDef("fig1", initiation=Initiation.IMMEDIATE,
                       termination=Termination.IMMEDIATE)
    log = []

    def role_p(ctx):
        log.append(("p-start", (yield GetTime())))

    def role_q(ctx):
        yield Delay(30)

    def role_r(ctx):
        yield Delay(40)

    script.add_role("p", role_p)
    script.add_role("q", role_q)
    script.add_role("r", role_r)

    scheduler = Scheduler()
    instance = script.instance(scheduler)

    def enroller(role, delay):
        yield Delay(delay)
        yield from instance.enroll(role)

    scheduler.spawn("A", enroller("p", 0))
    scheduler.spawn("B", enroller("q", 1))
    scheduler.spawn("C", enroller("r", 2))
    # D attempts to enroll as p at t=5; A finished at t=0, but B and C run
    # until t=31 and t=42.
    scheduler.spawn("D", enroller("p", 5))
    scheduler.spawn("E", enroller("q", 6))
    scheduler.spawn("F", enroller("r", 7))
    scheduler.run()
    # First p starts immediately; second p starts only after performance 1
    # ends at t=42.
    assert log[0] == ("p-start", 0.0)
    assert log[1] == ("p-start", 42.0)
    assert instance.performance_count == 2


def test_figure2_successive_enrollments_preserve_pairing():
    """Figure 2: A broadcasts x then v; B receives into u then y.
    The semantics must guarantee u = x and y = v."""
    script = ScriptDef("fig2", initiation=Initiation.DELAYED,
                       termination=Termination.DELAYED)

    @script.role("transmitter", params=[Param("data", Mode.IN)])
    def transmitter(ctx, data):
        yield from ctx.send(("recipient", 1), data)

    @script.role_family("recipient", [1], params=[Param("data", Mode.OUT)])
    def recipient(ctx, data):
        data.value = yield from ctx.receive("transmitter")

    scheduler = Scheduler(seed=5)
    instance = script.instance(scheduler)

    def process_a():
        yield from instance.enroll("transmitter", data="x")
        yield from instance.enroll("transmitter", data="v")

    def process_b():
        u = Ref()
        y = Ref()
        yield from instance.enroll(("recipient", 1), data=u)
        yield from instance.enroll(("recipient", 1), data=y)
        return (u.value, y.value)

    scheduler.spawn("A", process_a())
    scheduler.spawn("B", process_b())
    result = scheduler.run()
    assert result.results["B"] == ("x", "v")
    assert instance.performance_count == 2


def test_successive_activation_rule_under_delayed_policies():
    """A new performance cannot begin until the previous one ended."""
    script = make_pair_script(initiation=Initiation.DELAYED,
                              termination=Termination.DELAYED)
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    for i in range(3):
        scheduler.spawn(f"G{i}", enrolling(instance, "giver", value=i))
        scheduler.spawn(f"T{i}", enrolling(instance, "taker"))
    result = scheduler.run()
    assert instance.performance_count == 3
    # Trace order: every PERFORMANCE_END precedes the next PERFORMANCE_START.
    events = [e for e in result.tracer
              if e.kind in (EventKind.PERFORMANCE_START,
                            EventKind.PERFORMANCE_END)]
    kinds = [e.kind for e in events]
    assert kinds == [EventKind.PERFORMANCE_START, EventKind.PERFORMANCE_END] * 3


def test_performance_events_have_binding_details():
    script = make_pair_script()
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    scheduler.spawn("G", enrolling(instance, "giver", value=1))
    scheduler.spawn("T", enrolling(instance, "taker"))
    result = scheduler.run()
    start = result.tracer.of_kind(EventKind.PERFORMANCE_START)[0]
    assert start.get("binding") == {"'giver'": "G", "'taker'": "T"}


def test_out_values_returned_from_enroll():
    script = make_pair_script()
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    scheduler.spawn("G", enrolling(instance, "giver", value="payload"))
    scheduler.spawn("T", enrolling(instance, "taker"))
    result = scheduler.run()
    assert result.results["T"] == {"value": "payload"}
    assert result.results["G"] == {}


def test_lone_enrollment_deadlocks_under_delayed_initiation():
    script = make_pair_script()
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    scheduler.spawn("G", enrolling(instance, "giver", value=1))
    with pytest.raises(DeadlockError) as excinfo:
        scheduler.run()
    assert "enrollment" in str(excinfo.value)


def test_one_process_cannot_fill_two_roles_under_delayed_initiation():
    """Delayed initiation implies a one-to-one process/role correspondence."""
    script = make_pair_script()
    scheduler = Scheduler()
    instance = script.instance(scheduler)

    def greedy():
        # Sequential enrollment in both roles of the same performance
        # cannot work: the first enrollment blocks until a partner fills
        # the other role, which this process would only do afterwards.
        yield from instance.enroll("giver", value=1)
        yield from instance.enroll("taker")

    scheduler.spawn("G", greedy())
    with pytest.raises(DeadlockError):
        scheduler.run()


def test_one_process_may_play_two_roles_under_immediate_immediate():
    """Section II: immediate/immediate allows one process to enroll in
    several roles of the same performance when they don't communicate
    directly."""
    script = ScriptDef("pair", initiation=Initiation.IMMEDIATE,
                       termination=Termination.IMMEDIATE)
    log = []

    def a_role(ctx):
        log.append("a")
        yield from ()

    def b_role(ctx):
        log.append("b")
        yield from ()

    script.add_role("a", a_role)
    script.add_role("b", b_role)

    scheduler = Scheduler()
    instance = script.instance(scheduler)

    def doubler():
        yield from instance.enroll("a")
        yield from instance.enroll("b")

    scheduler.spawn("P", doubler())
    scheduler.run()
    assert log == ["a", "b"]
    assert instance.performance_count == 1


def test_enroll_in_two_instances_of_same_script():
    """Multiple instances of one (generic) script are independent."""
    script = make_pair_script()
    scheduler = Scheduler()
    first = script.instance(scheduler, name="bc1")
    second = script.instance(scheduler, name="bc2")
    scheduler.spawn("G1", enrolling(first, "giver", value="one"))
    scheduler.spawn("T1", enrolling(first, "taker"))
    scheduler.spawn("G2", enrolling(second, "giver", value="two"))
    scheduler.spawn("T2", enrolling(second, "taker"))
    result = scheduler.run()
    assert result.results["T1"] == {"value": "one"}
    assert result.results["T2"] == {"value": "two"}
    assert first.performance_count == 1
    assert second.performance_count == 1


def test_instances_get_distinct_names():
    script = make_pair_script()
    scheduler = Scheduler()
    a = script.instance(scheduler)
    b = script.instance(scheduler)
    assert a.name != b.name


def test_role_body_exception_propagates_as_process_failure():
    script = ScriptDef("s", initiation=Initiation.IMMEDIATE,
                       termination=Termination.IMMEDIATE)

    def bad(ctx):
        yield Delay(1)
        raise ValueError("role exploded")

    script.add_role("bad", bad)
    script.critical_role_set("bad")
    scheduler = Scheduler()
    instance = script.instance(scheduler)

    from repro.errors import ProcessFailure

    def enroller():
        yield from instance.enroll("bad")

    scheduler.spawn("P", enroller())
    with pytest.raises(ProcessFailure):
        scheduler.run()
