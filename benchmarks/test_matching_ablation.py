"""Ablation: cost of the partner-matching constraint search.

DESIGN.md calls out the decision to solve partners-named enrollment with a
backtracking search.  This ablation measures the matcher on adversarial
pools — many competing requests with disjunctive constraints — to show the
cost stays negligible at script-sized inputs (the paper's scripts have a
handful of roles).
"""

import pytest

from repro.core.enrollment import EnrollmentRequest, normalize_partners
from repro.core.matching import fill_order, solve

from helpers import print_series

ROLES = [f"role{i}" for i in range(6)]


def build_pool(requests_per_role, constraint_density):
    """Competing requests; some with disjunctive partner constraints."""
    pool = []
    process_counter = 0
    for role_index, role in enumerate(ROLES):
        for r in range(requests_per_role):
            process_counter += 1
            partners = {}
            if (role_index + r) % constraint_density == 0:
                other = ROLES[(role_index + 1) % len(ROLES)]
                # Accept only the *last* two candidates for the next role:
                # forces backtracking past the earlier arrivals.
                allowed = {f"P{role_index + 1}-{k}"
                           for k in (requests_per_role - 1,
                                     requests_per_role - 2) if k >= 0}
                partners[other] = allowed
            pool.append(EnrollmentRequest(
                process=f"P{role_index}-{r}", role_id=role, actuals={},
                partners=normalize_partners(partners)))
    return pool


def solve_pool(pool):
    return solve(pool, fill_order([frozenset(ROLES)]), {}, {}, {},
                 frozenset(ROLES))


@pytest.mark.parametrize("requests_per_role", [2, 8])
def test_matcher_with_constraints(benchmark, requests_per_role):
    pool = build_pool(requests_per_role, constraint_density=2)
    assignment = benchmark(solve_pool, pool)
    assert assignment is not None
    assert set(assignment.bindings) == set(ROLES)


def test_matcher_scaling_series(benchmark):
    import time as time_module

    def sweep():
        rows = []
        for per_role in (2, 4, 8, 16):
            pool = build_pool(per_role, constraint_density=2)
            start = time_module.perf_counter()
            for _ in range(50):
                assignment = solve_pool(pool)
            elapsed = (time_module.perf_counter() - start) / 50
            assert assignment is not None
            rows.append((per_role, len(pool), round(elapsed * 1e6, 1)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("Matcher ablation: backtracking over adversarial pools",
                 ["requests/role", "pool size", "mean solve (us)"], rows)
    # The matcher stays in the sub-millisecond regime at script scale.
    assert all(us < 50_000 for _, _, us in rows)


def test_unsatisfiable_pool_fails_fast(benchmark):
    """Mutually exclusive constraints: the search must conclude (None)
    without exploding."""
    pool = [
        EnrollmentRequest(process="A", role_id="role0", actuals={},
                          partners=normalize_partners({"role1": "X"})),
    ]
    pool += [EnrollmentRequest(process=f"B{i}", role_id="role1", actuals={},
                               partners={})
             for i in range(20)]
    # Critical set covers exactly the two contested roles, so the search
    # really has to try (and reject) every B before concluding.
    result = benchmark(
        solve, pool, [frozenset({"role0", "role1"})], {}, {}, {},
        frozenset(ROLES))
    assert result is None
