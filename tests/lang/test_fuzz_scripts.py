"""Fuzzing the whole pipeline: generated sources -> parse -> run -> verify.

Hypothesis generates random *relay-tree* scripts in the surface syntax: a
``root`` role sends a value to the roots of random subtrees of ``relay``
family members, each of which forwards to its children.  Every generated
program is compiled, executed under a random seed, and checked: all
members receive the value, the analyzer finds no unmatched communication
(SCR001/SCR002), and the trace invariants hold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_program
from repro.lang import compile_script, parse_script
from repro.runtime import Scheduler
from repro.verification import check_all


@st.composite
def relay_trees(draw):
    """A random tree over members 1..n: parent[i] < i (or 0 = root)."""
    n = draw(st.integers(1, 8))
    parents = {1: 0}
    for i in range(2, n + 1):
        parents[i] = draw(st.integers(0, i - 1))
    return n, parents


def build_source(n, parents):
    children = {i: [] for i in range(0, n + 1)}
    for node, parent in parents.items():
        children[parent].append(node)

    root_sends = ";\n    ".join(
        f"SEND data TO relay[{c}]" for c in children[0]) or "SKIP"

    # Each relay receives from its parent, then forwards to its children.
    forward_chunks = []
    for i in range(1, n + 1):
        parent = parents[i]
        source = "root" if parent == 0 else f"relay[{parent}]"
        lines = [f"IF i = {i} THEN", "      BEGIN",
                 f"        RECEIVE data FROM {source}"]
        for child in children[i]:
            lines.append(f"        ; SEND data TO relay[{child}]")
        lines.append("      END;")
        forward_chunks.append("\n".join(lines))
    body = "\n    ".join(forward_chunks) or "SKIP"

    return f"""
SCRIPT relay_tree;
  INITIATION: DELAYED;
  TERMINATION: DELAYED;

  ROLE root (data : item);
  BEGIN
    {root_sends}
  END root;

  ROLE relay [i:1..{n}] (VAR data : item);
  BEGIN
    {body}
  END relay;
END relay_tree;
"""


@given(tree=relay_trees(), seed=st.integers(0, 2**10))
@settings(max_examples=60, deadline=None)
def test_generated_relay_scripts_deliver_everywhere(tree, seed):
    n, parents = tree
    source = build_source(n, parents)
    program = parse_script(source)
    assert analyze_program(program).by_code("SCR001", "SCR002") == []
    script = compile_script(source)

    scheduler = Scheduler(seed=seed)
    instance = script.instance(scheduler)

    def transmitter():
        yield from instance.enroll("root", data="payload")

    def relay(i):
        out = yield from instance.enroll(("relay", i))
        return out["data"]

    scheduler.spawn("T", transmitter())
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), relay(i))
    result = scheduler.run()
    for i in range(1, n + 1):
        assert result.results[("R", i)] == "payload", (n, parents, i)
    check_all(scheduler.tracer, instance.name)


@given(tree=relay_trees())
@settings(max_examples=40, deadline=None)
def test_generated_sources_roundtrip_through_printer(tree):
    from repro.lang import format_program

    n, parents = tree
    source = build_source(n, parents)
    program = parse_script(source)
    reparsed = parse_script(format_program(program))
    assert len(reparsed.roles) == len(program.roles)
    # The printed form compiles and carries the same role structure.
    script = compile_script(format_program(program))
    assert set(script.declarations) == {"root", "relay"}
