"""A performance's kept counts agree with the scans they replace.

As roles fill, vacate and finish, ``Performance`` keeps per critical set
the number of items still missing, per family the number of filled
members, whether every filled role has finished, and one address per
role.  ``solve_oracle.py`` keeps the scans that re-derived the first
three on every query.  On seeded performances, built only through
``fill``, ``vacate`` and ``finish``, every transition must leave the
kept state equal to the scans.

The scripts mix singletons, a closed family named critical by bare name
and by member, open families with ``min_count`` 0, 1 and 2, with and
without a maximum (and named critical by name and by member), and one to
three overlapping critical sets.  Roles are vacated as a supervised crash
vacates them, only while unfinished, and are then often refilled.  Now
and then a walk tries what the bookkeeping refuses: finishing a role
that is not filled, or vacating a finished one.
"""

from __future__ import annotations

import collections
import random

from repro.core import ScriptDef
from repro.core.enrollment import EnrollmentRequest
from repro.core.performance import Performance, RoleAddress
from repro.core.roles import family_of
from repro.errors import PerformanceError
from repro.runtime import Scheduler

from . import solve_oracle

CASES = 600
STEPS = 16


def _idle(ctx):
    yield from ()


def make_script(rng: random.Random, seed: int):
    """A seeded script, its open families' bounds and its concrete roles."""
    script = ScriptDef(f"bookkeeping{seed}")
    singletons = rng.sample(["a", "b", "c"], rng.randint(1, 3))
    for name in singletons:
        script.add_role(name, _idle)
    members = [("fam", i) for i in range(1, rng.randint(1, 3) + 1)]
    script.add_role_family("fam", _idle, indices=[i for _, i in members])
    bounds = {}
    for name in rng.sample(["grp", "crowd"], rng.randint(1, 2)):
        low = rng.choice([0, 1, 2])
        high = rng.choice([None, max(1, low) + rng.randint(0, 2)])
        script.add_role_family(name, _idle, min_count=low, max_count=high)
        bounds[name] = (low, high)
    items = (singletons + ["fam"] + members + list(bounds)
             + [(name, 1) for name in bounds])
    for _ in range(rng.randint(1, 3)):
        script.critical_role_set(*rng.sample(items, rng.randint(1, 3)))
    roles = singletons + members + [(name, index) for name in bounds
                                    for index in range(1, 4)]
    return script, bounds, roles


def has_room(performance: Performance, family, bounds: dict) -> bool:
    """May one more member of ``family`` fill, under its maximum?"""
    if family not in bounds or bounds[family][1] is None:
        return True
    return solve_oracle.family_count(performance, family) < bounds[family][1]


def walk(rng: random.Random, script: ScriptDef, bounds: dict, roles: list):
    """Yield ``(performance, event)`` after each seeded transition.

    ``event`` is ``fill``, ``refill`` (a fill of a vacated role),
    ``vacate``, ``finish``, or ``refused`` and ``accepted`` for a misuse
    the performance refused or let through.
    """
    instance = script.instance(Scheduler(seed=0))
    performance = Performance(instance.name, 1, instance._critical_table)
    vacated: set = set()
    yield performance, "start"
    for step in range(STEPS):
        filled = performance.filled
        unfinished = [r for r in filled if r not in performance.done]
        free = [r for r in roles if r not in filled
                and has_room(performance, family_of(r), bounds)]
        action = rng.choices(["fill", "vacate", "finish", "misuse"],
                             weights=[6, 2, 2, 1])[0]
        if action == "fill" and free:
            refills = [r for r in free if r in vacated]
            role = rng.choice(refills if refills and rng.random() < 0.6
                              else free)
            performance.fill(role, EnrollmentRequest(
                process=f"P{step}", role_id=role, actuals={}, partners={}))
            yield performance, "refill" if role in vacated else "fill"
        elif action == "vacate" and unfinished:
            role = rng.choice(unfinished)
            performance.vacate(role)
            vacated.add(role)
            yield performance, "vacate"
        elif action == "finish" and unfinished:
            performance.finish(rng.choice(unfinished))
            yield performance, "finish"
        elif action == "misuse":
            finished = sorted(performance.done, key=repr)
            unfilled = [r for r in roles if r not in filled]
            try:
                if finished and rng.random() < 0.5:
                    performance.vacate(rng.choice(finished))
                elif unfilled:
                    performance.finish(rng.choice(unfilled))
                else:
                    continue
            except PerformanceError:
                yield performance, "refused"
            else:
                yield performance, "accepted"


def disagreements(performance: Performance, script: ScriptDef,
                  roles: list, addresses: dict) -> list[str]:
    """Every way the kept state differs from the oracle's scans."""
    problems = []
    open_min = {name: family.min_count
                for name, family in script.open_families.items()}
    if performance.covered != solve_oracle.critical_covered(
            performance, script.critical_sets, open_min):
        problems.append("coverage")
    if performance.all_filled_done != solve_oracle.all_filled_done(
            performance):
        problems.append("completion")
    if not performance.done <= set(performance.filled):
        problems.append("a finished role is not filled")
    for family in ["fam", *open_min]:
        if performance.family_count(family) != solve_oracle.family_count(
                performance, family):
            problems.append(f"family count of {family}")
    for role in roles:
        address = performance.address(role)
        fresh = RoleAddress(performance.id, role)
        if (address is not addresses.setdefault(role, address)
                or address is not performance.address(role)
                or address != fresh or hash(address) != hash(fresh)):
            problems.append(f"address of {role!r}")
    return problems


def test_kept_counts_equal_the_scans_after_every_transition():
    reached = collections.Counter()
    for seed in range(CASES):
        rng = random.Random(seed)
        script, bounds, roles = make_script(rng, seed)
        addresses: dict = {}
        events = set()
        for performance, event in walk(rng, script, bounds, roles):
            assert event != "accepted", (seed, performance.done)
            assert not disagreements(performance, script, roles,
                                     addresses), seed
            events.add(event)
            if event != "start":
                events.add("covered" if performance.covered
                           else "uncovered")
        reached.update(events)
    # Both coverage states in at least a fifth of the walks each; a
    # refill after a vacate, and a refused misuse, in at least a tenth.
    assert min(reached["covered"], reached["uncovered"]) >= CASES // 5, \
        reached
    assert reached["refill"] >= CASES // 10, reached
    assert reached["refused"] >= CASES // 10, reached


def test_an_address_built_afresh_equals_the_kept_one():
    script, _, roles = make_script(random.Random(0), 0)
    performance = Performance("inst", 3, script.instance(
        Scheduler(seed=0))._critical_table)
    role = roles[0]
    kept = performance.address(role)
    fresh = RoleAddress("inst/p3", role)
    assert kept is performance.address(role) and kept is not fresh
    assert kept == fresh and hash(kept) == hash(fresh)
    assert {fresh: "found"}[kept] == "found"
    assert repr(kept) == f"inst/p3:{role!r}"
    assert kept != RoleAddress("inst/p4", role)
