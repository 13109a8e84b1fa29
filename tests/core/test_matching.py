"""Unit tests for the joint-enrollment constraint matcher."""

from repro.core.enrollment import EnrollmentRequest, normalize_partners
from repro.core.matching import (Assignment, consistent_extension,
                                 fill_order, slot_candidates, solve)


def request(process, role, partners=None):
    return EnrollmentRequest(process=process, role_id=role, actuals={},
                             partners=normalize_partners(partners))


def run_solve(pool, critical_sets, closed_families=None, open_min=None,
              open_max=None, closed_ids=None):
    closed_families = closed_families or {}
    extra_ids = set()
    for family, indices in closed_families.items():
        extra_ids.update((family, i) for i in indices)
    if closed_ids is None:
        closed_ids = frozenset(
            {item for s in critical_sets for item in s
             if not isinstance(item, str) or not (open_min or {}).get(item)}
            | extra_ids)
    return solve(pool, fill_order(critical_sets),
                 closed_families, open_min or {}, open_max or {},
                 frozenset(closed_ids))


def test_solve_simple_two_roles():
    pool = [request("P", "giver"), request("Q", "taker")]
    assignment = run_solve(pool, [{"giver", "taker"}])
    assert assignment is not None
    assert assignment.bindings["giver"].process == "P"
    assert assignment.bindings["taker"].process == "Q"


def test_solve_returns_none_when_role_missing():
    pool = [request("P", "giver")]
    assert run_solve(pool, [{"giver", "taker"}]) is None


def test_solve_respects_partner_constraints():
    pool = [request("P", "giver", {"taker": "R"}), request("Q", "taker")]
    assert run_solve(pool, [{"giver", "taker"}]) is None


def test_solve_backtracks_over_competitors():
    """P's constraint forces the second taker candidate to be chosen."""
    pool = [
        request("P", "giver", {"taker": "Q2"}),
        request("Q1", "taker"),
        request("Q2", "taker"),
    ]
    assignment = run_solve(pool, [{"giver", "taker"}])
    assert assignment.bindings["taker"].process == "Q2"


def test_solve_mutual_constraints_must_agree():
    pool = [
        request("P", "giver", {"taker": "Q"}),
        request("Q", "taker", {"giver": "R"}),   # Q insists on R, not P
        request("R", "giver"),
    ]
    assignment = run_solve(pool, [{"giver", "taker"}])
    assert assignment is not None
    assert assignment.bindings["giver"].process == "R"
    assert assignment.bindings["taker"].process == "Q"


def test_solve_arrival_order_breaks_ties():
    pool = [request("first", "taker"), request("second", "taker"),
            request("P", "giver")]
    assignment = run_solve(pool, [{"giver", "taker"}])
    assert assignment.bindings["taker"].process == "first"


def test_solve_same_process_cannot_take_two_roles():
    pool = [request("P", "giver"), request("P", "taker")]
    assert run_solve(pool, [{"giver", "taker"}]) is None


def test_solve_greedy_extension_adds_non_critical_roles():
    pool = [request("P", "a"), request("Q", "b")]
    assignment = run_solve(pool, [{"a"}], closed_ids={"a", "b"})
    assert set(assignment.bindings) == {"a", "b"}


def test_solve_greedy_extension_respects_constraints():
    pool = [request("P", "a", {"b": "R"}), request("Q", "b")]
    assignment = run_solve(pool, [{"a"}], closed_ids={"a", "b"})
    # Q is not R, so b stays unfilled.
    assert set(assignment.bindings) == {"a"}


def test_solve_bare_family_request_fills_member_slot():
    pool = [request("P", "fam"),   # "any free index"
            request("Q", ("fam", 2))]
    assignment = run_solve(pool, [{("fam", 1), ("fam", 2)}],
                           closed_families={"fam": (1, 2)})
    assert assignment is not None
    processes = {role: req.process
                 for role, req in assignment.bindings.items()}
    assert processes == {("fam", 1): "P", ("fam", 2): "Q"}


def test_solve_bare_family_in_greedy_extension():
    pool = [request("P", "hub"), request("Q", "fam"), request("R", "fam")]
    assignment = run_solve(pool, [{"hub"}],
                           closed_families={"fam": (1, 2)},
                           closed_ids={"hub", ("fam", 1), ("fam", 2)})
    processes = {role: req.process
                 for role, req in assignment.bindings.items()}
    assert processes == {"hub": "P", ("fam", 1): "Q", ("fam", 2): "R"}


def test_solve_open_family_min_count():
    pool = [request("P", "members"), request("Q", "members")]
    assignment = run_solve(pool, [{"members"}], open_min={"members": 3},
                           open_max={"members": None}, closed_ids=set())
    assert assignment is None
    pool.append(request("R", "members"))
    assignment = run_solve(pool, [{"members"}], open_min={"members": 3},
                           open_max={"members": None}, closed_ids=set())
    assert assignment is not None
    assert len(assignment.family_members["members"]) == 3


def test_solve_open_family_max_count_caps_extension():
    pool = [request(f"P{i}", "members") for i in range(5)]
    assignment = run_solve(pool, [{"members"}], open_min={"members": 1},
                           open_max={"members": 3}, closed_ids=set())
    assert len(assignment.family_members["members"]) == 3


def test_solve_alternative_critical_sets_tried_in_order():
    pool = [request("W", "writer"), request("M", "manager")]
    assignment = run_solve(pool, [{"manager", "reader"},
                                  {"manager", "writer"}],
                           closed_ids={"manager", "reader", "writer"})
    assert set(assignment.bindings) == {"manager", "writer"}


def namers(filled):
    """The requests of ``filled`` that name partners."""
    return [r for r in filled.values() if r.partners]


def test_consistent_extension_checks_both_directions():
    filled = {"giver": request("P", "giver", {"taker": "Q"})}
    ok = consistent_extension(filled, namers(filled), "taker",
                              request("Q", "taker"))
    bad = consistent_extension(filled, namers(filled), "taker",
                               request("R", "taker"))
    assert ok and not bad


def test_consistent_extension_new_request_constrains_filled():
    filled = {"giver": request("P", "giver")}
    rejecting = request("Q", "taker", {"giver": "R"})
    assert not consistent_extension(filled, namers(filled), "taker",
                                    rejecting)


def test_consistent_extension_same_process_rule():
    filled = {"giver": request("P", "giver")}
    again = request("P", "taker")
    assert not consistent_extension(filled, namers(filled), "taker", again)
    assert consistent_extension(filled, namers(filled), "taker", again,
                                allow_same_process=True)


def test_slot_candidates_include_bare_family_requests():
    pool = [request("P", ("fam", 1)), request("Q", "fam"),
            request("R", "other")]
    candidates = slot_candidates(pool, ("fam", 1))
    assert [c.process for c in candidates] == ["P", "Q"]


def test_assignment_processes_and_pairs():
    a = Assignment(bindings={"x": request("P", "x")},
                   family_members={"f": [request("Q", "f")]})
    assert a.processes() == {"P", "Q"}
    assert len(a.all_requests()) == 2
    assert ("f", a.family_members["f"][0]) in a.pairs()
