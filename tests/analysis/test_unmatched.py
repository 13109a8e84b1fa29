"""SCR001/SCR002: sends and receives that can never find a partner."""

from repro.analysis import analyze_source


def unmatched(source):
    """(code, line, role, partner) of every SCR001/SCR002 finding."""
    report = analyze_source(source)
    return [(f.code, f.line, f.role, f.partner)
            for f in report.by_code("SCR001", "SCR002")]


ORPHAN_SEND = """
SCRIPT s;
  ROLE a (x : item);
  BEGIN
    SEND x TO b
  END a;
  ROLE b ();
  BEGIN SKIP END b;
END s;
"""


def test_orphan_send_flagged():
    assert unmatched(ORPHAN_SEND) == [("SCR001", 5, "a", "b")]


def test_orphan_receive_flagged():
    assert unmatched("""
SCRIPT s;
  ROLE a ();
  VAR v : item;
  BEGIN
    RECEIVE v FROM b
  END a;
  ROLE b ();
  BEGIN SKIP END b;
END s;
""") == [("SCR002", 6, "a", "b")]


def test_matched_pair_not_flagged():
    assert unmatched("""
SCRIPT s;
  ROLE a (x : item);
  BEGIN SEND x TO b END a;
  ROLE b (VAR y : item);
  BEGIN RECEIVE y FROM a END b;
END s;
""") == []


def test_comm_inside_guards_and_branches_is_seen():
    # Only the a -> c send is unmatched.
    assert unmatched("""
SCRIPT s;
  ROLE a (x : item);
  VAR n : integer;
  BEGIN
    IF n = 0 THEN
      SEND x TO b
    ELSE
      BEGIN
        DO n > 0 -> n := n - 1 OD;
        SEND x TO c
      END
  END a;
  ROLE b (VAR y : item);
  BEGIN RECEIVE y FROM a END b;
  ROLE c ();
  BEGIN SKIP END c;
END s;
""") == [("SCR001", 11, "a", "c")]


def test_comm_in_guard_position_is_seen():
    assert unmatched("""
SCRIPT s;
  ROLE a (x : item);
  VAR done : boolean;
  BEGIN
    DO
      NOT done; SEND x TO b -> done := true
    OD
  END a;
  ROLE b (VAR y : item);
  BEGIN RECEIVE y FROM a END b;
END s;
""") == []


def test_family_self_communication_allowed():
    """The pipeline pattern: a family talking to itself is matched."""
    assert unmatched("""
SCRIPT s;
  ROLE fam [i:1..3] (VAR d : item);
  BEGIN
    RECEIVE d FROM fam[i - 1];
    SEND d TO fam[i + 1]
  END fam;
END s;
""") == []


def test_warnings_report_line_numbers():
    finding = analyze_source(ORPHAN_SEND).by_code("SCR001")[0]
    assert finding.render().startswith("line 5: warning SCR001 [a]")
