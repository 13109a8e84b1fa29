"""Guaranteed communication prefixes."""

from repro.analysis import guaranteed_prefix
from repro.lang import analyze, parse_script
from repro.lang.figures import FIGURE4_PIPELINE_BROADCAST


def role_named(program, name):
    return next(role for role in program.roles if role.name == name)


def compiled(source):
    program = parse_script(source)
    return program, analyze(program)


def test_fig4_prefix_folds_per_instance():
    program = parse_script(FIGURE4_PIPELINE_BROADCAST)
    info = analyze(program)
    recipient = role_named(program, "recipient")

    first = guaranteed_prefix(recipient, ("recipient", 1), {"i": 1}, info)
    assert first.complete
    assert [(op.kind, op.partner) for op in first.ops] == [
        ("recv", ("sender", None)), ("send", ("recipient", 2))]

    last = guaranteed_prefix(recipient, ("recipient", 5), {"i": 5}, info)
    assert last.complete
    assert [(op.kind, op.partner) for op in last.ops] == [
        ("recv", ("recipient", 4))]


def test_prefix_cut_at_dynamic_if_and_do():
    program, info = compiled("""SCRIPT s;
      INITIATION: IMMEDIATE;
      TERMINATION: IMMEDIATE;
      ROLE a (x : item; flag : boolean);
      BEGIN
        SEND x TO b;
        IF flag THEN
          SEND x TO b
      END a;
      ROLE b (VAR y : item);
      VAR a_done : boolean;
      BEGIN
        RECEIVE y FROM a;
        a_done := false;
        DO
          NOT a_done; RECEIVE y FROM a -> a_done := true
        OD
      END b;
    END s;
    """)
    a = guaranteed_prefix(role_named(program, "a"), ("a", None), {}, info)
    assert not a.complete                 # cut at the dynamic IF
    assert [(op.kind, op.partner) for op in a.ops] == [("send", ("b", None))]
    b = guaranteed_prefix(role_named(program, "b"), ("b", None), {}, info)
    assert not b.complete                 # cut at the DO
    assert len(b.ops) == 1


def test_prefix_skips_absent_partner_like_the_engine():
    program, info = compiled("""SCRIPT s;
      INITIATION: IMMEDIATE;
      TERMINATION: IMMEDIATE;
      ROLE a (x : item);
      BEGIN
        SEND x TO w[9];
        SEND x TO w[1]
      END a;
      ROLE w [i:1..3] (VAR y : item);
      BEGIN
        IF i = 1 THEN
          RECEIVE y FROM a
      END w;
    END s;
    """)
    prefix = guaranteed_prefix(role_named(program, "a"), ("a", None), {},
                               info)
    # The out-of-bounds send yields UNFILLED and continues; only the
    # in-bounds send is a guaranteed operation.
    assert prefix.complete
    assert [(op.kind, op.partner) for op in prefix.ops] == [
        ("send", ("w", 1))]


def test_prefix_records_follower_lines():
    program, info = compiled("""SCRIPT s;
      INITIATION: IMMEDIATE;
      TERMINATION: IMMEDIATE;
      ROLE a (x : item);
      BEGIN
        SEND x TO b;
        SEND x TO b
      END a;
      ROLE b (VAR y : item);
      BEGIN
        RECEIVE y FROM a;
        RECEIVE y FROM a
      END b;
    END s;
    """)
    prefix = guaranteed_prefix(role_named(program, "a"), ("a", None), {},
                               info)
    assert prefix.ops[0].next_line == prefix.ops[1].line
    assert prefix.ops[1].next_line is None
