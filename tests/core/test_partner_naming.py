"""Partners-named, partners-unnamed, mixed and disjunctive enrollment."""

import pytest

from repro.core import Initiation, Mode, Param, ScriptDef, Termination
from repro.core.enrollment import normalize_partners
from repro.errors import DeadlockError, EnrollmentError
from repro.faults import FaultPlan
from repro.runtime import Delay, EventKind, Scheduler

from .helpers import enrolling, make_pair_script


def test_normalize_partners_single_and_disjunctive():
    normalized = normalize_partners({
        "a": "P",
        "b": ["Q", "R"],
        ("fam", 1): ("array", 2),   # a tuple is one process-array name
    })
    assert normalized["a"] == frozenset({"P"})
    assert normalized["b"] == frozenset({"Q", "R"})
    assert normalized[("fam", 1)] == frozenset({("array", 2)})


def test_normalize_partners_rejects_empty_set():
    with pytest.raises(EnrollmentError):
        normalize_partners({"a": []})


def test_matching_partner_specs_jointly_enroll():
    script = make_pair_script()
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    scheduler.spawn("P", enrolling(instance, "giver", value="v",
                                   partners={"taker": "Q"}))
    scheduler.spawn("Q", enrolling(instance, "taker",
                                   partners={"giver": "P"}))
    result = scheduler.run()
    assert result.results["Q"] == {"value": "v"}


def test_mismatched_partner_specs_do_not_enroll():
    """P wants R as taker, but only Q offers: no joint enrollment."""
    script = make_pair_script()
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    scheduler.spawn("P", enrolling(instance, "giver", value="v",
                                   partners={"taker": "R"}))
    scheduler.spawn("Q", enrolling(instance, "taker"))
    with pytest.raises(DeadlockError):
        scheduler.run()


def test_partner_constraint_selects_among_competitors():
    """Two processes compete for 'taker'; the giver's naming picks one."""
    script = make_pair_script()
    scheduler = Scheduler()
    instance = script.instance(scheduler)

    def competitor(name):
        # Unwanted competitor gives up: it also enrolls in a second
        # performance so the run terminates cleanly.
        out = yield from instance.enroll("taker")
        return out["value"]

    scheduler.spawn("Q1", competitor("Q1"))
    scheduler.spawn("Q2", competitor("Q2"))
    scheduler.spawn("P", enrolling(instance, "giver", value="first",
                                   partners={"taker": "Q2"}))
    scheduler.spawn("P2", enrolling(instance, "giver", value="second",
                                    partners={"taker": "Q1"}))
    result = scheduler.run()
    assert result.results["Q2"] == "first"
    assert result.results["Q1"] == "second"


def test_disjunctive_partner_naming():
    """'Role filled by either A or B' accepts whichever is available."""
    script = make_pair_script()
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    scheduler.spawn("B", enrolling(instance, "taker"))
    scheduler.spawn("P", enrolling(instance, "giver", value=1,
                                   partners={"taker": ["A", "B"]}))
    result = scheduler.run()
    assert result.results["B"] == {"value": 1}


def test_disjunctive_naming_rejects_third_party():
    script = make_pair_script()
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    scheduler.spawn("C", enrolling(instance, "taker"))
    scheduler.spawn("P", enrolling(instance, "giver", value=1,
                                   partners={"taker": ["A", "B"]}))
    with pytest.raises(DeadlockError):
        scheduler.run()


def test_partial_naming_mixes_named_and_unnamed():
    """The broadcast scenario: P names the transmitter but not the other
    recipients."""
    script = ScriptDef("bc")

    @script.role("transmitter", params=[Param("x", Mode.IN)])
    def transmitter(ctx, x):
        for i in (1, 2):
            yield from ctx.send(("recipient", i), x)

    @script.role_family("recipient", [1, 2], params=[Param("y", Mode.OUT)])
    def recipient(ctx, y):
        y.value = yield from ctx.receive("transmitter")

    scheduler = Scheduler()
    instance = script.instance(scheduler)
    scheduler.spawn("T", enrolling(instance, "transmitter", x="msg"))
    scheduler.spawn("P", enrolling(instance, ("recipient", 1),
                                   partners={"transmitter": "T"}))
    scheduler.spawn("Q", enrolling(instance, ("recipient", 2)))
    result = scheduler.run()
    assert result.results["P"] == {"y": "msg"}
    assert result.results["Q"] == {"y": "msg"}


def test_full_partner_named_broadcast_like_csp_section():
    """Section IV's CSP-style enrollment: the transmitter names every
    recipient, each recipient names the transmitter."""
    script = ScriptDef("bc")

    @script.role("transmitter", params=[Param("x", Mode.IN)])
    def transmitter(ctx, x):
        for i in (1, 2, 3):
            yield from ctx.send(("recipient", i), x)

    @script.role_family("recipient", [1, 2, 3], params=[Param("y", Mode.OUT)])
    def recipient(ctx, y):
        y.value = yield from ctx.receive("transmitter")

    scheduler = Scheduler()
    instance = script.instance(scheduler)
    scheduler.spawn("p", enrolling(
        instance, "transmitter", x=7,
        partners={("recipient", 1): "qa", ("recipient", 2): "qb",
                  ("recipient", 3): "qc"}))
    for name, index in (("qa", 1), ("qb", 2), ("qc", 3)):
        scheduler.spawn(name, enrolling(
            instance, ("recipient", index), partners={"transmitter": "p"}))
    result = scheduler.run()
    assert all(result.results[n] == {"y": 7} for n in ("qa", "qb", "qc"))


def test_unnamed_enrollment_takes_first_arrival():
    """Partners-unnamed: FIFO among competing enrollees for a role."""
    script = make_pair_script()
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    order = []

    def competitor(name, delay):
        yield Delay(delay)
        out = yield from instance.enroll("taker")
        order.append(name)
        return out

    scheduler.spawn("late", competitor("late", 5))
    scheduler.spawn("early", competitor("early", 1))
    scheduler.spawn("G1", enrolling(instance, "giver", value="a"))
    scheduler.spawn("G2", enrolling(instance, "giver", value="b"))
    result = scheduler.run()
    # 'early' (t=1) is served in performance 1, 'late' in performance 2.
    assert order == ["early", "late"]
    assert result.results["early"] == {"value": "a"}


def test_constraint_on_immediate_initiation_checked_incrementally():
    """Under immediate initiation a request joins only if consistent with
    the already-filled roles."""
    script = make_pair_script(initiation=Initiation.IMMEDIATE,
                              termination=Termination.IMMEDIATE)
    scheduler = Scheduler()
    instance = script.instance(scheduler)

    def giver_constrainted():
        out = yield from instance.enroll("giver", value="x",
                                         partners={"taker": "good"})
        return out

    def taker(name, delay):
        yield Delay(delay)
        out = yield from instance.enroll("taker")
        return out["value"]

    scheduler.spawn("P", giver_constrainted())
    scheduler.spawn("bad", taker("bad", 1))
    scheduler.spawn("good", taker("good", 2))
    # 'bad' arrives first but is rejected by P's constraint; 'good' joins
    # performance 1.  'bad' is left pooled: performance 2 starts with it
    # but never completes (no giver) — run until quiescence of performance 1.
    with pytest.raises(DeadlockError):
        scheduler.run()
    assert instance.performances[0].binding() == {"giver": "P",
                                                  "taker": "good"}


def test_vacated_naming_role_stops_constraining_joiners():
    """A crashed request's partner naming leaves the performance with it.

    P takes 'giver' naming Q as its taker and crashes before the seal.
    R, whom P's naming would have rejected, then takes 'taker' in the
    same performance, and a second giver G completes it."""
    script = make_pair_script(initiation=Initiation.IMMEDIATE,
                              termination=Termination.IMMEDIATE)
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    instance.supervise()

    def later(delay, role, **actuals):
        yield Delay(delay)
        return (yield from instance.enroll(role, **actuals))

    scheduler.spawn("P", enrolling(instance, "giver", value="p",
                                   partners={"taker": "Q"}))
    scheduler.spawn("R", later(2, "taker"))
    scheduler.spawn("G", later(3, "giver", value="g"))
    FaultPlan().crash(1, "P").install(scheduler)
    result = scheduler.run()
    first = instance.performances[0]
    accepts = {event.process: event.details for event in
               scheduler.tracer.events
               if event.kind is EventKind.ENROLL_ACCEPT}
    assert accepts["R"]["performance"] == first.id
    assert accepts["R"]["role"] == "taker"
    assert first.binding() == {"giver": "G", "taker": "R"}
    assert result.results["R"] == {"value": "g"}


def test_reflexive_partner_constraint_must_include_self():
    """A request constraining its own role must name itself."""
    script = make_pair_script()
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    scheduler.spawn("P", enrolling(instance, "giver", value=1,
                                   partners={"giver": "somebody_else"}))
    scheduler.spawn("Q", enrolling(instance, "taker"))
    with pytest.raises(DeadlockError):
        scheduler.run()
