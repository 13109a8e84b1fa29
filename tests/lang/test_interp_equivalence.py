"""Compiled role bodies behave as the tree-walking interpreter did.

Every input runs twice, once with the role bodies ``compile_program``
builds and once with the bodies of the reference interpreter kept in
``interp_oracle.py``, swapped in for ``repro.lang.interp._make_body``.
Both runs must reach the same outcome (completion with the same outputs,
a deadlock with the same blocked processes, or a failure with the same
exception, message and line) through byte-identical serialized traces.

The inputs:

* every program of the front-end corpus (Figures 3-5, the example
  scripts and the analysis fixtures) at scheduler seeds 0-9, each role
  enrolled once as ``analysis.witness.replay_deadlock`` enrolls it;
* seeded relay trees from ``test_fuzz_scripts.py``;
* small programs that reach each ``InterpreterError`` a role body can
  raise at run time, and the Python errors of its operators.

Run as a module, it prints one line per corpus program and seed with the
outcome and the SHA-1 of the trace, under whichever ``repro`` is first on
the path (the verify skill's Section III byte-identity recipe)::

    PYTHONPATH=src python -m tests.lang.test_interp_equivalence
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro.analysis.witness import _atom_params
from repro.errors import DeadlockError, ProcessFailure
from repro.lang import analyze, parse_script
from repro.lang import ast_nodes as ast
from repro.lang import interp
from repro.lang.figures import FIGURE5_DATABASE
from repro.persist.record import event_record
from repro.runtime import Delay, Scheduler

from . import interp_oracle
from .test_frontend_equivalence import corpus
from .test_fuzz_scripts import build_source

SEEDS = range(10)
RELAY_TREES = 200
MAX_STEPS = 200_000


def compile_with(builder, program, info):
    """``compile_program`` with ``builder`` making the role bodies."""
    saved = interp._make_body
    interp._make_body = builder
    try:
        return interp.compile_program(program, info)
    finally:
        interp._make_body = saved


def run_cast(program, seed, info=None, builder=None, roles=None):
    """Enroll every closed role once and run: ``(outcome, trace lines)``.

    ``roles``, when given, names the only roles (or families) to enroll.

    The instance is named after the program, so traces repeat from process
    to process.  The outcome is ``("completed", outputs)``, ``("deadlock", reason)``
    or ``("failed", process, type, message, line)``.
    """
    info = analyze(program) if info is None else info
    script = compile_with(builder or interp._make_body, program, info)
    params = {role.name: _atom_params(role) for role in program.roles}
    scheduler = Scheduler(seed=seed, max_steps=MAX_STEPS)
    instance = script.instance(scheduler, name=program.name)

    def actor(role_id, kwargs):
        out = yield from instance.enroll(role_id, **kwargs)
        return out

    for role_id in sorted(script.closed_role_ids, key=str):
        if isinstance(role_id, str):
            name, label = role_id, role_id
        else:
            name, label = role_id[0], f"{role_id[0]}[{role_id[1]}]"
        if roles is not None and name not in roles:
            continue
        scheduler.spawn(label, actor(role_id, params.get(name, {})))
    return finish(scheduler)


def finish(scheduler):
    """Run ``scheduler``: ``(outcome, trace lines)``."""
    try:
        result = scheduler.run()
        outcome = ("completed", sorted((str(k), repr(v))
                                       for k, v in result.results.items()))
    except DeadlockError as blocked:
        outcome = ("deadlock", str(blocked))
    except ProcessFailure as failure:
        error = failure.original
        outcome = ("failed", str(failure.process_name), type(error).__name__,
                   str(error), getattr(error, "line", None))
    trace = [json.dumps(event_record(e), sort_keys=True)
             for e in scheduler.tracer.events]
    return outcome, trace


def assert_same_run(program, seed, info=None):
    return assert_same(run_cast(program, seed, info),
                       run_cast(program, seed, info, interp_oracle._make_body))


def assert_same(compiled, oracle):
    assert compiled[0] == oracle[0]
    assert compiled[1] == oracle[1]
    return compiled[0]


# ---------------------------------------------------------------------------
# Corpus and generated programs
# ---------------------------------------------------------------------------

CORPUS = corpus()


@pytest.mark.parametrize("label,source", CORPUS, ids=[l for l, _ in CORPUS])
def test_corpus_runs_as_the_oracle_runs(label, source):
    program = parse_script(source)
    for seed in SEEDS:
        assert_same_run(program, seed)


def test_corpus_reaches_every_outcome_kind():
    """The corpus drives both completion and deadlock, not one of them."""
    kinds = {run_cast(parse_script(source), 0)[0][0] for _, source in CORPUS}
    assert {"completed", "deadlock"} <= kinds


def test_relay_trees_run_as_the_oracle_runs():
    for s in range(RELAY_TREES):
        rng = random.Random(s)
        n = rng.randint(1, 8)
        parents = {i: rng.randint(0, i - 1) for i in range(1, n + 1)}
        program = parse_script(build_source(n, parents))
        outcome = assert_same_run(program, s)
        assert outcome[0] == "completed", (s, outcome)


def lock_clients(seed, builder=None, ops=16):
    """Figure 5 serving a reader and a writer client, many performances.

    Each client issues ``ops`` seeded lock and release requests with
    seeded think times, so the two sometimes share a performance and one
    is denied; the managers enroll until both clients are done.
    """
    program = parse_script(FIGURE5_DATABASE)
    script = compile_with(builder or interp._make_body, program,
                          analyze(program))
    rng = random.Random(seed)
    scheduler = Scheduler(seed=seed, max_steps=MAX_STEPS)
    instance = script.instance(scheduler, name="fig5")
    clients_left = [2]

    def manager(i):
        served = 0
        while (yield from instance.enroll(
                ("manager", i),
                withdraw_when=lambda: clients_left[0] == 0)) is not None:
            served += 1
        return served

    def client(role, plan):
        statuses = []
        for request, think in plan:
            if think:
                yield Delay(think)
            out = yield from instance.enroll(role, id=role, data="item",
                                             request=request)
            statuses.append(out["status"])
        clients_left[0] -= 1
        return statuses

    for i in (1, 2, 3):
        scheduler.spawn(("M", i), manager(i))
    for role in ("reader", "writer"):
        plan = [(rng.choice(("lock", "release")), rng.choice((0, 0, 1, 2)))
                for _ in range(ops)]
        scheduler.spawn(role, client(role, plan))
    return finish(scheduler)


def test_lock_manager_clients_run_as_the_oracle_runs():
    statuses = set()
    for seed in SEEDS:
        outcome = assert_same(lock_clients(seed),
                              lock_clients(seed, interp_oracle._make_body))
        assert outcome[0] == "completed", outcome
        statuses.update(repr(v) for _, v in outcome[1])
    # Some request was granted, one denied and one released.
    assert all(any(word in v for v in statuses)
               for word in ("granted", "denied", "released"))


# ---------------------------------------------------------------------------
# Run-time errors: same exception, message and line
# ---------------------------------------------------------------------------

def one_role(body, variables="x : integer; arr : ARRAY [1..3] OF integer",
             params="VAR out : item"):
    return f"""
SCRIPT s;
  ROLE a ({params});
  VAR {variables};
  BEGIN
    {body}
  END a;
END s;
"""


ERROR_PROGRAMS = {
    "read out of bounds": one_role("out := arr[9]"),
    "write out of bounds": one_role("arr[0] := 1"),
    "index a non-array": one_role("x := 5; out := x[1]"),
    "indexed store to a non-array": one_role("x[1] := 2"),
    "index after bad operands": one_role("out := arr[x - 'a']"),
    "SIZE arity": one_role("out := SIZE(arr, x)"),
    "TAG arity": one_role("out := TAG()"),
    "array bounds name a parameter": one_role(
        "SKIP", variables="grid : ARRAY [1..n] OF integer",
        params="n : integer"),
    "type error in a comparison": one_role("out := x < 'a'"),
    "division by zero": one_role("out := 1 / x"),
    "set minus a scalar": one_role("out := [1] - 1"),
    "send evaluates its value first": """
SCRIPT s;
  ROLE a (VAR out : item);
  VAR x : integer; arr : ARRAY [1..2] OF integer;
  BEGIN SEND x[1] TO b[arr[5]] END a;
  ROLE b [j:1..2] (VAR got : item);
  BEGIN RECEIVE got FROM a END b;
END s;
""",
    "guarded send evaluates its partner first": """
SCRIPT s;
  ROLE a (VAR out : item);
  VAR x : integer; arr : ARRAY [1..2] OF integer;
  BEGIN DO true; SEND x[1] TO b[arr[5]] -> SKIP OD END a;
  ROLE b [j:1..2] (VAR got : item);
  BEGIN RECEIVE got FROM a END b;
END s;
""",
    "guard condition fails before a send": """
SCRIPT s;
  ROLE a (VAR out : item);
  VAR done : ARRAY [1..2] OF boolean;
  BEGIN
    DO [i = 1..3] NOT done[i]; SEND i TO b -> done[i] := true OD
  END a;
  ROLE b (VAR out : item);
  BEGIN RECEIVE out FROM a END b;
END s;
""",
}


#: Programs whose runs hinge on scoping and guard selection.
SEMANTICS_PROGRAMS = {
    # A local, the family index and a replicator hide script constants.
    "shadowing": """
SCRIPT s;
  CONST n = 5;
  CONST i = 7;
  CONST k = 2;
  ROLE a [i:1..k] (VAR out : integer);
  VAR n : integer;
  BEGIN
    n := n + i;
    DO [i = 1..k] n < 40 -> n := n * 3 + i OD;
    out := n
  END a;
END s;
""",
    # Communicating and pure arms in one DO: an immediate select, then
    # a Choice among the pure arms.
    "mixed guards": """
SCRIPT s;
  ROLE a (VAR out : integer);
  VAR n : integer; sent : integer;
  BEGIN
    DO n < 4; SEND n TO b -> sent := sent + 1; n := n + 1
    [] n < 6 -> n := n + 1
    [] n < 3 -> n := n + 2
    OD;
    out := n * 10 + sent
  END a;
  ROLE b (VAR got : integer);
  VAR more : boolean;
  BEGIN
    RECEIVE got FROM a;
    more := got < 1;
    DO more; RECEIVE got FROM a -> more := got < 2
    [] more -> more := false
    OD
  END b;
END s;
""",
    # Nested replicators, sets and a whole-array assignment.
    "nested replicators": """
SCRIPT s;
  CONST k = 3;
  ROLE a (VAR out : integer; VAR picked : item);
  VAR seen : SET OF [1..k]; grid : ARRAY [1..k] OF integer; n : integer;
  BEGIN
    grid := 1;
    DO [i = 1..k] NOT (i IN seen) ->
      seen := seen + [i];
      DO [j = 1..k] grid[j] < i * j -> grid[j] := grid[j] + i OD
    OD;
    DO [i = 1..k] n < k; SEND grid[i] TO b[i] -> n := n + 1 OD;
    out := SIZE(seen) * 100 + grid[1] + grid[2] + grid[3];
    picked := TAG(pair(out, n))
  END a;
  ROLE b [m:1..k] (VAR got : integer);
  BEGIN RECEIVE got FROM a END b;
END s;
""",
    # The partner never enrolls: the DO ends when every arm's partner
    # is absent.
    "absent partner": """
SCRIPT s;
  INITIATION: DELAYED;
  CRITICAL: a;
  ROLE a (VAR out : integer);
  VAR tries : integer;
  BEGIN
    DO tries < 3; SEND tries TO b -> tries := tries + 1 OD;
    out := tries + 10
  END a;
  ROLE b (VAR got : integer);
  BEGIN RECEIVE got FROM a END b;
END s;
""",
}


@pytest.mark.parametrize("name", sorted(SEMANTICS_PROGRAMS))
def test_scoping_and_guards_run_as_the_oracle_runs(name):
    program = parse_script(SEMANTICS_PROGRAMS[name])
    roles = ("a",) if name == "absent partner" else None
    for seed in SEEDS:
        outcome = assert_same(
            run_cast(program, seed, roles=roles),
            run_cast(program, seed, roles=roles,
                     builder=interp_oracle._make_body))
        assert outcome[0] == "completed", outcome


@pytest.mark.parametrize("name", sorted(ERROR_PROGRAMS))
def test_runtime_errors_match_the_oracle(name):
    outcome = assert_same_run(parse_script(ERROR_PROGRAMS[name]), 0)
    assert outcome[0] == "failed", outcome


def test_unchecked_names_fail_as_the_oracle_fails():
    """Names the checks would reject: unbound reads and stores.

    ``compile_program`` trusts the ``ProgramInfo`` it is given; built for
    another program, it leaves names that resolve nowhere.
    """
    checked = parse_script(one_role("out := k", params="VAR out : integer")
                           .replace("SCRIPT s;", "SCRIPT s;\n  CONST k = 2;"))
    info = analyze(checked)
    reads = dataclasses.replace(info, constants={})
    outcome = assert_same_run(checked, 0, reads)
    assert outcome[2:] == ("InterpreterError", "unbound name 'k' at line 7",
                           7), outcome
    stores = parse_script(one_role("ghost := 1", params="VAR out : integer"))
    outcome = assert_same_run(stores, 0, info)
    assert outcome[2:4] == ("InterpreterError",
                            "assignment to unbound name 'ghost'"), outcome


def test_unknown_operators_fail_after_their_operands():
    """Operators the parser never makes evaluate their operands first."""
    program = parse_script(one_role("out := 1; out := 2"))
    first, second = program.roles[0].body
    broken = (
        dataclasses.replace(first, value=ast.Binary("%", ast.Num(1, 5),
                                                    ast.Name("ghost", 5), 5)),
        dataclasses.replace(second, value=ast.Unary("~", ast.Num(1, 6), 6)))
    for stmt in broken:
        role = dataclasses.replace(program.roles[0], body=(stmt,))
        variant = dataclasses.replace(program, roles=(role,))
        info = analyze(program)
        outcome = assert_same_run(variant, 0, info)
        assert outcome[0] == "failed", outcome


# ---------------------------------------------------------------------------
# The driver of the byte-identity recipe
# ---------------------------------------------------------------------------

def corpus_lines():
    """One line per corpus program and seed: outcome and trace SHA-1."""
    for label, source in CORPUS:
        program = parse_script(source)
        for seed in SEEDS:
            outcome, trace = run_cast(program, seed)
            digest = hashlib.sha1("\n".join(trace).encode()).hexdigest()
            yield f"{label} {seed} {digest} {outcome!r}"


if __name__ == "__main__":
    for line in corpus_lines():
        print(line)
