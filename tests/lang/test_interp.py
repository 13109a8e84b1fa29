"""End-to-end tests: script-language sources running on the engine."""

import pytest

from repro.core import Ref
from repro.errors import InterpreterError, ProcessFailure
from repro.lang import compile_script, interp
from repro.lang.figures import (FIGURE3_STAR_BROADCAST,
                                FIGURE4_PIPELINE_BROADCAST, FIGURE5_DATABASE)
from repro.runtime import Delay, Scheduler


def run_script(script, enrollments, seed=0):
    """Spawn one process per (name, role, actuals) enrollment and run."""
    scheduler = Scheduler(seed=seed)
    instance = script.instance(scheduler)

    def enrolling(role, actuals):
        out = yield from instance.enroll(role, **actuals)
        return out

    for name, role, actuals in enrollments:
        scheduler.spawn(name, enrolling(role, actuals))
    return scheduler.run(), instance


def test_figure3_star_broadcast_runs():
    script = compile_script(FIGURE3_STAR_BROADCAST)
    enrollments = [("T", "sender", {"data": "hello"})]
    enrollments += [(f"R{i}", ("recipient", i), {}) for i in range(1, 6)]
    result, _ = run_script(script, enrollments)
    for i in range(1, 6):
        assert result.results[f"R{i}"] == {"data": "hello"}


def test_figure3_policies():
    from repro.core import Initiation, Termination
    script = compile_script(FIGURE3_STAR_BROADCAST)
    assert script.initiation is Initiation.DELAYED
    assert script.termination is Termination.DELAYED


def test_figure4_pipeline_broadcast_runs():
    script = compile_script(FIGURE4_PIPELINE_BROADCAST)
    enrollments = [("T", "sender", {"data": 99})]
    enrollments += [(f"R{i}", ("recipient", i), {}) for i in range(1, 6)]
    result, _ = run_script(script, enrollments)
    for i in range(1, 6):
        assert result.results[f"R{i}"] == {"data": 99}


def test_figure4_pipeline_hops_through_neighbours():
    from repro.runtime import EventKind
    script = compile_script(FIGURE4_PIPELINE_BROADCAST)
    scheduler = Scheduler()
    instance = script.instance(scheduler)

    def enrolling(role, actuals):
        out = yield from instance.enroll(role, **actuals)
        return out

    scheduler.spawn("T", enrolling("sender", {"data": 1}))
    for i in range(1, 6):
        scheduler.spawn(f"R{i}", enrolling(("recipient", i), {}))
    scheduler.run()
    hops = [(e.get("sender_alias").role_id, e.get("to").role_id)
            for e in scheduler.tracer.of_kind(EventKind.COMM)]
    assert hops[0] == ("sender", ("recipient", 1))
    assert hops[-1] == (("recipient", 4), ("recipient", 5))


def figure5_ops(ops, seed=0):
    """Run Figure 5 with a sequence of (role, request) client operations."""
    script = compile_script(FIGURE5_DATABASE)
    scheduler = Scheduler(seed=seed)
    instance = script.instance(scheduler)
    total = len(ops)

    def manager(i):
        count = 0
        while count < total:
            out = yield from instance.enroll(("manager", i))
            count += 1
        return count

    def client(role, request):
        out = yield from instance.enroll(
            role, id=f"{role}-proc", data="item-x", request=request)
        return out["status"]

    for i in range(1, 4):
        scheduler.spawn(f"M{i}", manager(i))

    def driver():
        statuses = []
        for role, request in ops:
            status = yield from client_once(role, request)
            statuses.append(status)
        return statuses

    def client_once(role, request):
        out = yield from instance.enroll(
            role, id=f"{role}-proc", data="item-x", request=request)
        return out["status"]

    scheduler.spawn("driver", driver())
    result = scheduler.run()
    return result.results["driver"]


def test_figure5_reader_lock_granted():
    assert figure5_ops([("reader", "lock")]) == ["granted"]


def test_figure5_reader_lock_then_release():
    assert figure5_ops([("reader", "lock"), ("reader", "release")]) == [
        "granted", "released"]


def test_figure5_writer_lock_granted_when_free():
    assert figure5_ops([("writer", "lock")]) == ["granted"]


def test_figure5_note_per_performance_tables():
    """The language demo's lock state is per-performance (the persistent
    version lives in repro.scripts.lockmanager): two successive writer
    locks both succeed because each performance starts fresh."""
    assert figure5_ops([("writer", "lock"), ("writer", "lock")]) == [
        "granted", "granted"]


def test_figure5_reader_and_writer_conflict_in_one_performance():
    """When reader and writer share a performance, the writer cannot get
    all three grants after the reader locked one manager."""
    script = compile_script(FIGURE5_DATABASE)
    scheduler = Scheduler(seed=1)
    instance = script.instance(scheduler)

    def manager(i):
        yield from instance.enroll(("manager", i))

    def reader_client():
        out = yield from instance.enroll(
            "reader", id="r", data="x", request="lock")
        return out["status"]

    def writer_client():
        out = yield from instance.enroll(
            "writer", id="w", data="x", request="lock")
        return out["status"]

    # Clients first (pooled), then managers: one joint performance.
    scheduler.spawn("R", reader_client())
    scheduler.spawn("W", writer_client())
    for i in range(1, 4):
        scheduler.spawn(f"M{i}", manager(i))
    result = scheduler.run()
    # The reader locks exactly one manager; the writer is denied there.
    assert result.results["R"] == "granted"
    assert result.results["W"] == "denied"
    assert instance.performance_count == 1


def test_out_params_copied_to_refs():
    script = compile_script(FIGURE3_STAR_BROADCAST)
    scheduler = Scheduler()
    instance = script.instance(scheduler)
    box = Ref()

    def sender():
        yield from instance.enroll("sender", data="v")

    def first_recipient():
        yield from instance.enroll(("recipient", 1), data=box)

    def other(i):
        yield from instance.enroll(("recipient", i))

    scheduler.spawn("T", sender())
    scheduler.spawn("R1", first_recipient())
    for i in range(2, 6):
        scheduler.spawn(f"R{i}", other(i))
    scheduler.run()
    assert box.value == "v"


def test_whole_array_assignment_and_bounds():
    source = """
SCRIPT s;
  ROLE a (VAR out : integer);
  VAR arr : ARRAY [1..3] OF integer;
  BEGIN
    arr := 7;
    out := arr[1] + arr[2] + arr[3]
  END a;
END s;
"""
    script = compile_script(source)
    result, _ = run_script(script, [("P", "a", {})])
    assert result.results["P"] == {"out": 21}


def test_array_index_out_of_bounds_fails():
    source = """
SCRIPT s;
  ROLE a (VAR out : integer);
  VAR arr : ARRAY [1..3] OF integer;
  BEGIN
    out := arr[9]
  END a;
END s;
"""
    script = compile_script(source)
    with pytest.raises(ProcessFailure) as excinfo:
        run_script(script, [("P", "a", {})])
    assert isinstance(excinfo.value.original, InterpreterError)


def test_indexing_a_non_array_names_the_line():
    source = """
SCRIPT s;
  ROLE a (VAR out : integer);
  VAR x : integer;
  BEGIN
    x := 5;
    out := x[1]
  END a;
END s;
"""
    script = compile_script(source)
    with pytest.raises(ProcessFailure) as excinfo:
        run_script(script, [("P", "a", {})])
    assert str(excinfo.value.original) == "cannot index into 5 at line 7"


def test_guarded_do_pure_boolean_countdown():
    source = """
SCRIPT s;
  ROLE a (VAR out : integer);
  VAR n : integer;
  BEGIN
    n := 5;
    DO n > 0 -> n := n - 1 OD;
    out := n
  END a;
END s;
"""
    script = compile_script(source)
    result, _ = run_script(script, [("P", "a", {})])
    assert result.results["P"] == {"out": 0}


def test_string_and_enum_values():
    source = """
SCRIPT s;
  ROLE a (request : (lock, release); VAR out : item);
  BEGIN
    IF request = lock THEN out := 'yes' ELSE out := 'no'
  END a;
END s;
"""
    script = compile_script(source)
    result, _ = run_script(script, [("P", "a", {"request": "lock"})])
    assert result.results["P"] == {"out": "yes"}


def test_message_constructor_and_tag():
    source = """
SCRIPT s;
  ROLE a (x : item);
  BEGIN
    SEND lock(x, 1) TO b
  END a;
  ROLE b (VAR tagval : item; VAR payload : item);
  VAR msg : item;
  BEGIN
    RECEIVE msg FROM a;
    tagval := TAG(msg);
    payload := msg
  END b;
END s;
"""
    script = compile_script(source)
    result, _ = run_script(script, [("P", "a", {"x": "data"}),
                                    ("Q", "b", {})])
    assert result.results["Q"]["tagval"] == "lock"
    assert result.results["Q"]["payload"] == ("lock", "data", 1)


def test_terminated_query_with_critical_sets():
    source = """
SCRIPT s;
  CRITICAL: a;
  ROLE a (VAR saw : boolean);
  BEGIN
    saw := optional.terminated
  END a;
  ROLE optional ();
  BEGIN SKIP END optional;
END s;
"""
    script = compile_script(source)
    result, _ = run_script(script, [("P", "a", {})])
    assert result.results["P"] == {"saw": True}


def test_delay_free_deterministic_replay():
    script = compile_script(FIGURE3_STAR_BROADCAST)
    outs = []
    for _ in range(2):
        enrollments = [("T", "sender", {"data": "d"})]
        enrollments += [(f"R{i}", ("recipient", i), {}) for i in range(1, 6)]
        result, _ = run_script(script, enrollments, seed=9)
        outs.append(result.steps)
    assert outs[0] == outs[1]


def test_roles_compile_once_at_first_activation(monkeypatch):
    """``compile_program`` builds no closures; each role compiles when it
    first runs, and every later performance reuses the closures."""
    compiled = []
    real = interp._RoleCompiler

    def counting(role, info):
        compiled.append(role.name)
        return real(role, info)

    monkeypatch.setattr(interp, "_RoleCompiler", counting)
    script = compile_script(FIGURE3_STAR_BROADCAST)
    assert compiled == []
    for round_ in range(3):
        enrollments = [(f"T{round_}", "sender", {"data": round_})]
        enrollments += [(f"R{round_}.{i}", ("recipient", i), {})
                        for i in range(1, 6)]
        result, _ = run_script(script, enrollments, seed=round_)
        assert result.results[f"R{round_}.1"] == {"data": round_}
    assert sorted(compiled) == ["recipient", "sender"]
