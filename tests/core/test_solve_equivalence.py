"""``solve`` on ordered inputs binds exactly as the sorting oracle does.

The production matcher no longer sorts: it takes the pool in arrival
(``seq``) order, as a script instance keeps it, and each critical set in
``fill_order``.  ``solve_oracle.py`` keeps the matcher that sorted both on
every call.  On seeded pools the oracle gets a shuffled pool and plain
frozenset critical sets; the production matcher gets the pool in ``seq``
order and the sets through ``fill_order``.  Both must return ``None``, or
bind the same requests to the same roles.

The pools mix singleton roles, a closed family requested by member and by
bare name, an open family with a minimum and a maximum, disjunctive
partner naming, processes holding two requests, and one to three critical
sets mixing members and the open family's name.
"""

from __future__ import annotations

import random

from repro.core.enrollment import EnrollmentRequest, normalize_partners
from repro.core.matching import fill_order, solve

from . import solve_oracle

SEEDS = 600
PROCESSES = [f"P{i}" for i in range(6)]


def generate(seed: int):
    """A script shape and a pool of requests, in creation (``seq``) order."""
    rng = random.Random(seed)
    singletons = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    members = [("fam", i) for i in range(1, rng.randint(1, 3) + 1)]
    closed_families = {"fam": tuple(index for _, index in members)}
    open_min = {"grp": rng.randint(0, 2)}
    open_max = {"grp": rng.choice([None, open_min["grp"] + rng.randint(0, 2)])}
    if open_max["grp"] == 0:
        open_max["grp"] = None
    items = singletons + members + ["grp"]
    critical_sets = [frozenset(rng.sample(items, rng.randint(1, 3)))
                     for _ in range(rng.randint(1, 3))]
    targets = singletons + members + ["fam", "grp"]
    partner_roles = singletons + members + ["grp"]
    pool = []
    for _ in range(rng.randint(1, 10)):
        partners = {}
        for role in rng.sample(partner_roles,
                               rng.choice([0, 0, 1, 1, 2])):
            names = rng.sample(PROCESSES, rng.randint(1, 3))
            partners[role] = names if len(names) > 1 else names[0]
        pool.append(EnrollmentRequest(
            process=rng.choice(PROCESSES), role_id=rng.choice(targets),
            actuals={}, partners=normalize_partners(partners)))
    closed_role_ids = frozenset(singletons + members)
    shape = (closed_families, open_min, open_max, closed_role_ids)
    return pool, critical_sets, shape


def by_identity(assignment):
    if assignment is None:
        return None
    return ({role: id(request)
             for role, request in assignment.bindings.items()},
            {family: [id(request) for request in requests]
             for family, requests in assignment.family_members.items()})


def test_ordered_solve_matches_the_sorting_oracle():
    outcomes = {"bound": 0, "none": 0, "open members": 0, "bare fam": 0}
    for seed in range(SEEDS):
        pool, critical_sets, shape = generate(seed)
        assert [r.seq for r in pool] == sorted(r.seq for r in pool)
        shuffled = list(pool)
        random.Random(-seed).shuffle(shuffled)
        expected = solve_oracle.solve(shuffled, critical_sets, *shape)
        actual = solve(pool, fill_order(critical_sets), *shape)
        assert by_identity(actual) == by_identity(expected), seed
        if expected is None:
            outcomes["none"] += 1
            continue
        outcomes["bound"] += 1
        outcomes["open members"] += bool(expected.family_members.get("grp"))
        outcomes["bare fam"] += any(request.role_id == "fam" for request in
                                    expected.bindings.values())
    # The generator reaches every kind of outcome, not only failures.
    assert min(outcomes.values()) >= SEEDS // 20, outcomes


def test_fill_order_sorts_each_set_by_repr():
    sets = [frozenset({"sender", ("recipient", 10), ("recipient", 2)}),
            frozenset({"grp"})]
    assert fill_order(sets) == (
        ("sender", ("recipient", 10), ("recipient", 2)), ("grp",))
