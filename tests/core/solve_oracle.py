"""Reference matcher: ``solve`` as it was before the per-instance tables.

This is the ``repro.core.matching.solve`` that sorted its inputs on every
call: the pool by arrival (``seq``) and each critical set's items by
``repr``.  It is kept, with its helpers, unchanged apart from this
docstring and its imports, as the oracle of
``test_solve_equivalence.py``: the production ``solve``, handed the pool
in arrival order and the critical sets in ``fill_order``, must return
``None`` exactly when this one does, and otherwise bind the same
requests to the same roles.

At the end, the scans a performance's queries made before it kept
counts: ``ScriptInstance._critical_covered`` and
``Performance.family_count`` and ``all_filled_done``.  They are the
oracle of ``test_performance_bookkeeping.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Iterable, Mapping, Sequence

from repro.core.enrollment import EnrollmentRequest
from repro.core.roles import RoleId, family_member, family_of

#: A critical-set item: a concrete role id, or an open family's name (str).
CriticalItem = Hashable


@dataclasses.dataclass(slots=True)
class Assignment:
    """A proposed set of joint enrollments.

    ``bindings`` maps each filled concrete role id to its request.
    ``family_members`` holds open-family requests still awaiting a concrete
    index (the coordinator allocates indices at activation).
    """

    bindings: dict[RoleId, EnrollmentRequest]
    family_members: dict[str, list[EnrollmentRequest]]

    def processes(self) -> set[Hashable]:
        """Every process appearing in this assignment."""
        used = {r.process for r in self.bindings.values()}
        for requests in self.family_members.values():
            used.update(r.process for r in requests)
        return used

    def all_requests(self) -> list[EnrollmentRequest]:
        """Every request in this assignment (bindings + open members)."""
        requests = list(self.bindings.values())
        for members in self.family_members.values():
            requests.extend(members)
        return requests

    def pairs(self) -> list[tuple[RoleId, EnrollmentRequest]]:
        """(role, request) pairs; open members use the family name."""
        result = list(self.bindings.items())
        for family, members in self.family_members.items():
            result.extend((family, m) for m in members)
        return result


def _pairwise_consistent(existing: Iterable[tuple[RoleId, EnrollmentRequest]],
                         role_id: RoleId,
                         request: EnrollmentRequest) -> bool:
    """Check mutual constraints between a candidate and accepted requests."""
    if not request.accepts_binding(role_id, request.process):
        return False
    for bound_role, bound_request in existing:
        if not request.accepts_binding(bound_role, bound_request.process):
            return False
        if not bound_request.accepts_binding(role_id, request.process):
            return False
    return True


def consistent_extension(filled: Mapping[RoleId, EnrollmentRequest],
                         role_id: RoleId,
                         request: EnrollmentRequest,
                         allow_same_process: bool = False) -> bool:
    """May ``request`` fill ``role_id`` in a performance bound as ``filled``?

    ``allow_same_process`` permits one process to hold several roles of the
    same performance — legal only under immediate initiation with immediate
    termination, per Section II.
    """
    if role_id in filled:
        return False
    if not allow_same_process:
        if any(r.process == request.process for r in filled.values()):
            return False
    return _pairwise_consistent(filled.items(), role_id, request)


def slot_candidates(pool: Sequence[EnrollmentRequest],
                    role_id: RoleId) -> list[EnrollmentRequest]:
    """Pending requests that could fill concrete role ``role_id``.

    A request naming the family without an index ("any free index") is a
    candidate for every member of that family.
    """
    family = family_of(role_id)
    return [r for r in pool
            if r.role_id == role_id
            or (family is not None and r.role_id == family)]


def _family_candidates(pool: Sequence[EnrollmentRequest],
                       family: str) -> list[EnrollmentRequest]:
    """Pending requests targeting open family ``family`` (bare name)."""
    return [r for r in pool if r.role_id == family]


def _search(slots: list[tuple[RoleId | None, list[EnrollmentRequest]]],
            chosen: list[EnrollmentRequest],
            chosen_roles: list[RoleId],
            used: set[Hashable]) -> bool:
    """Backtracking over the slot list; fills ``chosen`` on success.

    A slot is ``(concrete_role_id, candidates)`` or ``(None, candidates)``
    for an anonymous open-family slot, whose effective role id (for
    constraint checking) is the candidate's family name.
    """
    if not slots:
        return True
    role_id, candidates = slots[0]
    for candidate in candidates:
        if any(candidate is c for c in chosen) or candidate.process in used:
            continue
        effective_role = role_id if role_id is not None else candidate.role_id
        if not _pairwise_consistent(zip(chosen_roles, chosen),
                                    effective_role, candidate):
            continue
        chosen.append(candidate)
        chosen_roles.append(effective_role)
        used.add(candidate.process)
        if _search(slots[1:], chosen, chosen_roles, used):
            return True
        chosen.pop()
        chosen_roles.pop()
        used.remove(candidate.process)
    return False


def solve(pool: Sequence[EnrollmentRequest],
          critical_sets: Sequence[frozenset[CriticalItem]],
          closed_families: Mapping[str, tuple[int, ...]],
          open_family_min: Mapping[str, int],
          open_family_max: Mapping[str, int | None],
          closed_role_ids: frozenset[RoleId]) -> Assignment | None:
    """Find a joint enrollment covering some critical set, or ``None``.

    ``critical_sets`` are tried in declaration order; within one set, the
    required slots are filled by backtracking over pending requests in
    arrival order (so earlier enrollments win ties, matching the FIFO
    fairness the paper attributes to Ada).  The base assignment is then
    greedily extended with every remaining compatible request.
    """
    pool = sorted(pool, key=lambda r: r.seq)
    for critical in critical_sets:
        slots: list[tuple[RoleId | None, list[EnrollmentRequest]]] = []
        feasible = True
        for item in sorted(critical, key=repr):
            if isinstance(item, str) and item in open_family_min:
                needed = open_family_min[item]
                candidates = _family_candidates(pool, item)
                if len(candidates) < needed:
                    feasible = False
                    break
                for _ in range(needed):
                    slots.append((None, candidates))
            else:
                candidates = slot_candidates(pool, item)
                if not candidates:
                    feasible = False
                    break
                slots.append((item, candidates))
        if not feasible:
            continue

        chosen: list[EnrollmentRequest] = []
        chosen_roles: list[RoleId] = []
        used: set[Hashable] = set()
        if not _search(slots, chosen, chosen_roles, used):
            continue

        assignment = Assignment(bindings={}, family_members={})
        for role_id, request in zip(chosen_roles, chosen):
            if role_id in open_family_min:
                assignment.family_members.setdefault(role_id, []).append(request)
            else:
                assignment.bindings[role_id] = request
        _extend_greedily(assignment, pool, closed_families,
                         open_family_min, open_family_max, closed_role_ids)
        return assignment
    return None


def _free_family_index(assignment: Assignment, family: str,
                       indices: tuple[int, ...]) -> int | None:
    """Lowest index of a closed family not yet bound in ``assignment``."""
    for index in sorted(indices):
        if family_member(family, index) not in assignment.bindings:
            return index
    return None


def _extend_greedily(assignment: Assignment,
                     pool: Sequence[EnrollmentRequest],
                     closed_families: Mapping[str, tuple[int, ...]],
                     open_family_min: Mapping[str, int],
                     open_family_max: Mapping[str, int | None],
                     closed_role_ids: frozenset[RoleId]) -> None:
    """Add every remaining compatible request, in arrival order."""
    taken = {id(r) for r in assignment.all_requests()}
    for request in pool:
        if id(request) in taken:
            continue
        if request.process in assignment.processes():
            continue
        target = request.role_id

        if isinstance(target, str) and target in open_family_min:
            members = assignment.family_members.setdefault(target, [])
            limit = open_family_max.get(target)
            if limit is not None and len(members) >= limit:
                continue
            if not _pairwise_consistent(assignment.pairs(), target, request):
                continue
            members.append(request)
            taken.add(id(request))
            continue

        if isinstance(target, str) and target in closed_families:
            index = _free_family_index(assignment, target,
                                       closed_families[target])
            if index is None:
                continue
            target = family_member(request.role_id, index)

        if target in assignment.bindings or target not in closed_role_ids:
            continue
        if not _pairwise_consistent(assignment.pairs(), target, request):
            continue
        assignment.bindings[target] = request
        taken.add(id(request))


def family_count(performance, family: str) -> int:
    """How many members of ``family`` are currently filled."""
    return sum(1 for role in performance.filled if family_of(role) == family)


def all_filled_done(performance) -> bool:
    """Have all participating roles finished their bodies?"""
    return set(performance.filled) <= performance.done


def critical_covered(performance, critical_sets: Iterable[Iterable[Hashable]],
                     open_min: Mapping[str, int]) -> bool:
    """Do the performance's filled roles cover some critical set?"""
    for critical in critical_sets:
        covered = True
        for item in critical:
            if item in open_min:
                if family_count(performance, item) < open_min[item]:
                    covered = False
                    break
            elif item not in performance.filled:
                covered = False
                break
        if covered:
            return True
    return False
