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

``consistent_extension`` checks a joiner against only the requests that
name partners, which a ``Performance`` keeps next to its binding; the
oracle's version scans every bound role.  On seeded performances, built
and crash-vacated through ``Performance``, both must give the same answer.
"""

from __future__ import annotations

import collections
import random

from repro.core.enrollment import EnrollmentRequest, normalize_partners
from repro.core.matching import consistent_extension, fill_order, solve
from repro.core.performance import CriticalTable, Performance

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


JOIN_CASES = 600
SINGLETONS = ["a", "b", "c"]
CLOSED = [("fam", i) for i in range(1, 4)]
OPEN = [("grp", i) for i in range(1, 4)]
ROLES = SINGLETONS + CLOSED + OPEN
#: Partner-naming targets: every concrete role, and both families by
#: bare name (which no concrete binding matches).
NAMED = ROLES + ["fam", "grp"]


def naming(rng, own_role):
    """Partners for a request: 0-2 roles, its own in a fifth of picks."""
    partners = {}
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        role = own_role if rng.random() < 0.2 else rng.choice(NAMED)
        names = rng.sample(PROCESSES, rng.randint(1, 2))
        partners[role] = names if len(names) > 1 else names[0]
    return normalize_partners(partners)


def generate_join(seed: int):
    """A partly filled performance, a joiner and the role it would fill."""
    rng = random.Random(seed)
    performance = Performance("join", seed, CriticalTable.build((), {}))
    holders: list[str] = []
    for kind in (SINGLETONS, CLOSED, OPEN):
        for role in rng.sample(kind, rng.randint(1, 2)):
            if holders and rng.random() < 0.25:
                process = rng.choice(holders)    # a second role
            else:
                process = rng.choice(PROCESSES)
            holders.append(process)
            target = role if isinstance(role, str) else rng.choice(
                [role, role[0]])
            performance.fill(role, EnrollmentRequest(
                process=process, role_id=target, actuals={},
                partners=naming(rng, role)))
    if rng.random() < 0.3:
        performance.vacate(rng.choice(list(performance.filled)))
    unfilled = [r for r in ROLES if r not in performance.filled]
    role = (rng.choice(list(performance.filled)) if rng.random() < 0.15
            else rng.choice(unfilled))
    joiner = EnrollmentRequest(process=rng.choice(PROCESSES), role_id=role,
                               actuals={}, partners=naming(rng, role))
    return performance, role, joiner


def join_outcome(filled, role, joiner, allow_same_process):
    """Which of the oracle's checks decides, in the oracle's order."""
    if role in filled:
        return "role taken"
    if not allow_same_process and any(
            r.process == joiner.process for r in filled.values()):
        return "same process"
    if not joiner.accepts_binding(role, joiner.process):
        return "joiner rejects itself"
    if any(not joiner.accepts_binding(bound, r.process)
           for bound, r in filled.items()):
        return "joiner rejects a partner"
    if any(not r.accepts_binding(role, joiner.process)
           for r in filled.values()):
        return "a partner rejects the joiner"
    return "accepted"


def test_join_check_reads_namers_as_the_full_scan_does():
    outcomes = collections.Counter()
    for seed in range(JOIN_CASES):
        performance, role, joiner = generate_join(seed)
        filled = performance.filled
        assert performance.namers == {r: q for r, q in filled.items()
                                      if q.partners}, seed
        for allow in (False, True):
            expected = solve_oracle.consistent_extension(
                filled, role, joiner, allow)
            actual = consistent_extension(
                filled, performance.namers.values(), role, joiner, allow)
            assert actual == expected, (seed, allow)
            outcome = join_outcome(filled, role, joiner, allow)
            assert expected == (outcome == "accepted"), (seed, allow)
            outcomes[outcome] += 1
    assert len(outcomes) == 6, outcomes
    # Every outcome, acceptance included, in at least 5% of the runs.
    assert min(outcomes.values()) >= 2 * JOIN_CASES // 20, outcomes
