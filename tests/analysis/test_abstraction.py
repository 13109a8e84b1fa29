"""Unit tests for the counter-abstraction layer behind
``analyze --parameterized``."""

from pathlib import Path

import pytest

from repro.analysis.abstraction import (TOP, Atom, Code, Interior, ISyncEach,
                                        Unsupported, _default_value,
                                        build_abstract_system,
                                        build_concrete_system, detect_model,
                                        interval_compare)
from repro.analysis.graph import Affine
from repro.lang.analysis import analyze
from repro.lang.interp import _Array, default_factory
from repro.lang.parser import parse_script

from ..lang.test_frontend_equivalence import corpus

EXAMPLES = Path(__file__).parent.parent.parent / "examples" / "scripts"


def load(stem):
    program = parse_script((EXAMPLES / f"{stem}.script").read_text())
    return program, analyze(program)


COUNTED_BARRIER = """
SCRIPT barrier;
  CONST n = 3;
  INITIATION: IMMEDIATE;
  TERMINATION: IMMEDIATE;

  ROLE coordinator (go : item);
  VAR
    ready : item;
    c : integer;
  BEGIN
    c := 0;
    DO [j = 1..n]
      c < n; RECEIVE ready FROM worker[j] ->
        c := c + 1
    OD;
    c := 0;
    DO [j = 1..n]
      c < n; SEND go TO worker[j] ->
        c := c + 1
    OD
  END coordinator;

  ROLE worker [i:1..n] (ready : item; VAR go : item);
  BEGIN
    SEND ready TO coordinator;
    RECEIVE go FROM coordinator
  END worker;
END barrier;
"""


# -- model detection --------------------------------------------------------


def test_token_ring_classified_as_ring_cutoff():
    program, info = load("token_ring")
    model = detect_model(program, info)
    assert model is not None
    assert model.strategy == "cutoff"
    shape = model.families["node"]
    assert shape.regime == "ring"
    assert (shape.bl, shape.bh) == (1, 1)
    assert model.cutoff >= 4          # covers the declared size


def test_counted_barrier_classified_as_symmetric_abstract():
    program = parse_script(COUNTED_BARRIER)
    info = analyze(program)
    model = detect_model(program, info)
    assert model is not None
    assert model.strategy == "abstract"
    assert model.families["worker"].regime == "symmetric"


def test_request_reply_has_no_parametric_family():
    program, info = load("request_reply")
    assert detect_model(program, info) is None


def test_explicit_boundary_indices_widen_the_low_boundary():
    source = (Path(__file__).parent / "fixtures" /
              "family_gap.script").read_text()
    program = parse_script(source)
    info = analyze(program)
    model = detect_model(program, info)
    shape = model.families["worker"]
    assert shape.regime == "symmetric"
    assert shape.bl == 2              # worker[1] and worker[2] are named
    assert model.floor > model.declared


# -- counted-foreach recognition -------------------------------------------


def test_counted_foreach_compiles_to_sync_instructions():
    program = parse_script(COUNTED_BARRIER)
    info = analyze(program)
    model = detect_model(program, info)
    system = build_abstract_system(program, info, model)
    syncs = [i for i in system.codes["coordinator"].instrs
             if isinstance(i, ISyncEach)]
    assert [s.kind for s in syncs] == ["recv", "send"]
    assert set(system.syncs) == {("coordinator", 0), ("coordinator", 1)}


def test_counter_variable_reused_elsewhere_is_rejected():
    # Reusing the elided counter after the loop would read a value the
    # abstraction no longer tracks.
    source = COUNTED_BARRIER.replace(
        "    OD\n  END coordinator;",
        "    OD;\n    c := c + 1\n  END coordinator;")
    program = parse_script(source)
    info = analyze(program)
    model = detect_model(program, info)
    with pytest.raises(Unsupported):
        build_abstract_system(program, info, model)


def test_family_low_bound_other_than_one_is_rejected():
    # A counted foreach counts 0..n rendezvous, so soundness requires the
    # family to have exactly n members (low bound 1): with members 2..n
    # the concrete loop would demand one more rendezvous than members
    # exist, and the abstraction must refuse rather than diverge.
    source = COUNTED_BARRIER.replace("[i:1..n]", "[i:2..n]") \
                            .replace("[j = 1..n]", "[j = 2..n]")
    program = parse_script(source)
    info = analyze(program)
    model = detect_model(program, info)
    with pytest.raises(Unsupported):
        build_abstract_system(program, info, model)


# -- system construction ----------------------------------------------------


def test_abstract_system_members_and_counters():
    program = parse_script(COUNTED_BARRIER)
    info = analyze(program)
    model = detect_model(program, info)
    system = build_abstract_system(program, info, model)
    assert [m.label for m in system.members] == ["coordinator", "worker[i]"]
    assert system.counters["worker"].label == "worker[rest]"
    tracked = system.members[1]
    assert isinstance(tracked.bindings["i"], Interior)
    assert isinstance(tracked.bindings["ready"], Atom)


def test_concrete_system_enumerates_every_member():
    program = parse_script(COUNTED_BARRIER)
    system = build_concrete_system(program, {"n": 4})
    labels = [m.label for m in system.members]
    assert labels == ["coordinator"] + [f"worker[{i}]" for i in (1, 2, 3, 4)]


# -- value domain -----------------------------------------------------------


def test_atom_equality_is_sentinel_free():
    a = Atom("worker", "ready")
    b = Atom("coordinator", "go")
    assert repr(a) == "<worker.ready>"
    assert a == Atom("worker", "ready")
    assert a != b


def test_interval_compare_decides_uniform_orders():
    low = Affine(0, 1)                # constant 1
    high = Affine(1, 0)               # the parameter n
    # i in [1, n] vs 0: always greater.
    assert interval_compare(">", low, high, 0, floor=2) is True
    # i in [1, n] vs 1: undecided (i = 1 and i = n both possible).
    assert interval_compare("=", low, high, 1, floor=2) is None
    # i in [1, n] vs n + 1: never equal.
    assert interval_compare("=", low, high, Affine(1, 1), floor=2) is False


def _concrete(value):
    """An interpreter value in the verifier's terms: arrays as index->value
    maps, sets as frozensets."""
    if isinstance(value, _Array):
        return {index: _concrete(v) for index, v in value.slots.items()}
    if isinstance(value, set):
        return frozenset(value)
    return value


NESTED_LOCALS = """
SCRIPT s;
  CONST k = 2;
  ROLE a ();
  VAR grid : ARRAY [1..k] OF ARRAY [0..k] OF boolean;
      mode : (idle, busy);
      marks : ARRAY [1..3] OF SET OF [1..k];
  BEGIN SKIP END a;
END s;
"""


def test_verifier_defaults_match_the_interpreters():
    """``_default_value`` against a fresh activation's, for every local
    of the front-end corpus (and nested arrays, sets and enums)."""
    kinds = set()
    for _, source in corpus() + [("nested", NESTED_LOCALS)]:
        program = parse_script(source)
        info = analyze(program)
        for role in program.roles:
            for var in role.variables:
                make = default_factory(var.type, info)
                fresh = make()
                assert _concrete(fresh) == _default_value(var.type,
                                                          info.constants)
                if isinstance(fresh, (set, _Array)):
                    assert make() is not fresh   # each activation its own
                kinds.add(type(var.type).__name__)
    assert kinds == {"SimpleType", "EnumType", "SetType", "ArrayType"}
