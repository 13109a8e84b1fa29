"""Joint-enrollment matching: finding a consistent process-to-role binding.

Partners-named enrollment means processes "will jointly enroll in the script
only when their enrollment specifications match, that is they all agree on
the binding of processes to roles".  With disjunctive constraints ("A or B")
this is a small constraint-satisfaction problem, solved by backtracking.
Pools are not small (a 300-recipient star broadcast pools up to 301
requests), but only a request that names partners can reject a binding.
So a candidate is checked against the bound roles only when it names
partners itself, and otherwise against the bound requests that name
partners (the *namers*) alone: among requests that name nobody, each
check costs the same whatever the number of bound roles.

Requests may target:

* a singleton role or a concrete family member ``(family, index)``;
* a *closed* family by bare name — "any free index" — in which case the
  matcher allocates a concrete index;
* an *open* family by bare name (Section V open-ended scripts), where fresh
  indices are materialised per performance.

Two entry points:

* :func:`solve` — batch matching for delayed initiation: given the pool of
  pending requests, find an assignment that covers some critical role set
  and is mutually consistent, then greedily extend it with every other
  compatible pending request (maximising participation).

* :func:`consistent_extension` — incremental matching for immediate
  initiation: may ``request`` join a partially-filled performance without
  violating any already-accepted request's constraints?  The performance
  keeps its namers next to its binding
  (:attr:`~repro.core.performance.Performance.namers`).
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .enrollment import EnrollmentRequest
from .roles import RoleId, family_member, family_of

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

    def pairs(self) -> Iterator[tuple[RoleId, EnrollmentRequest]]:
        """(role, request) pairs; open members use the family name."""
        yield from self.bindings.items()
        for family, members in self.family_members.items():
            for member in members:
                yield family, member


def _pairwise_consistent(bound: Iterable[tuple[RoleId, EnrollmentRequest]],
                         namers: Iterable[EnrollmentRequest],
                         role_id: RoleId,
                         request: EnrollmentRequest) -> bool:
    """Check mutual constraints between a candidate and accepted requests.

    ``bound`` holds the accepted (role, request) pairs and ``namers`` those
    of their requests that name partners.  Only a request that names
    partners can reject a binding, so ``bound`` is read only when the
    candidate names partners itself.
    """
    if not request.accepts_binding(role_id, request.process):
        return False
    if request.partners:
        for bound_role, bound_request in bound:
            if not request.accepts_binding(bound_role, bound_request.process):
                return False
    for namer in namers:
        if not namer.accepts_binding(role_id, request.process):
            return False
    return True


def consistent_extension(filled: Mapping[RoleId, EnrollmentRequest],
                         namers: Iterable[EnrollmentRequest],
                         role_id: RoleId,
                         request: EnrollmentRequest,
                         allow_same_process: bool = False) -> bool:
    """May ``request`` fill ``role_id`` in a performance bound as ``filled``?

    ``namers`` are the requests in ``filled`` that name partners.
    ``allow_same_process`` permits one process to hold several roles of the
    same performance — legal only under immediate initiation with immediate
    termination, per Section II.
    """
    if role_id in filled:
        return False
    if not allow_same_process:
        if any(r.process == request.process for r in filled.values()):
            return False
    return _pairwise_consistent(filled.items(), namers, role_id, request)


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


def fill_order(critical_sets: Iterable[Iterable[CriticalItem]]
               ) -> tuple[tuple[CriticalItem, ...], ...]:
    """Each critical set's items in the order :func:`solve` fills them.

    The order is by ``repr``, so it does not depend on set iteration
    order: the same script fills its slots, and so binds its requests,
    the same way in every process.
    """
    return tuple(tuple(sorted(critical, key=repr))
                 for critical in critical_sets)


def _family_candidates(pool: Sequence[EnrollmentRequest],
                       family: str) -> list[EnrollmentRequest]:
    """Pending requests targeting open family ``family`` (bare name)."""
    return [r for r in pool if r.role_id == family]


def _search(slots: list[tuple[RoleId | None, list[EnrollmentRequest]]],
            chosen: list[EnrollmentRequest],
            chosen_roles: list[RoleId],
            used: set[Hashable],
            namers: list[EnrollmentRequest]) -> bool:
    """Backtracking over the slot list; fills ``chosen`` on success.

    A slot is ``(concrete_role_id, candidates)`` or ``(None, candidates)``
    for an anonymous open-family slot, whose effective role id (for
    constraint checking) is the candidate's family name.  ``used`` holds
    the processes of ``chosen``, so a chosen request is never chosen
    again, and ``namers`` those of its requests that name partners.
    """
    if not slots:
        return True
    role_id, candidates = slots[0]
    for candidate in candidates:
        if candidate.process in used:
            continue
        effective_role = role_id if role_id is not None else candidate.role_id
        if not _pairwise_consistent(zip(chosen_roles, chosen), namers,
                                    effective_role, candidate):
            continue
        chosen.append(candidate)
        chosen_roles.append(effective_role)
        used.add(candidate.process)
        if candidate.partners:
            namers.append(candidate)
        if _search(slots[1:], chosen, chosen_roles, used, namers):
            return True
        chosen.pop()
        chosen_roles.pop()
        used.remove(candidate.process)
        if candidate.partners:
            namers.pop()
    return False


def solve(pool: Sequence[EnrollmentRequest],
          critical_sets: Sequence[Sequence[CriticalItem]],
          closed_families: Mapping[str, tuple[int, ...]],
          open_family_min: Mapping[str, int],
          open_family_max: Mapping[str, int | None],
          closed_role_ids: frozenset[RoleId]) -> Assignment | None:
    """Find a joint enrollment covering some critical set, or ``None``.

    ``pool`` must be in arrival (``seq``) order, and each of
    ``critical_sets`` in :func:`fill_order`; ``solve`` sorts neither.
    The sets are tried in declaration order; within one set, the required
    slots are filled in the given order by backtracking over pending
    requests in pool order (so earlier enrollments win ties, matching the
    FIFO fairness the paper attributes to Ada).  The base assignment is
    then greedily extended with every remaining compatible request.
    """
    for critical in critical_sets:
        slots: list[tuple[RoleId | None, list[EnrollmentRequest]]] = []
        feasible = True
        for item in critical:
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
        namers: list[EnrollmentRequest] = []
        if not _search(slots, chosen, chosen_roles, used, namers):
            continue

        assignment = Assignment(bindings={}, family_members={})
        for role_id, request in zip(chosen_roles, chosen):
            if role_id in open_family_min:
                assignment.family_members.setdefault(role_id, []).append(request)
            else:
                assignment.bindings[role_id] = request
        _extend_greedily(assignment, namers, pool, closed_families,
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
                     namers: list[EnrollmentRequest],
                     pool: Sequence[EnrollmentRequest],
                     closed_families: Mapping[str, tuple[int, ...]],
                     open_family_min: Mapping[str, int],
                     open_family_max: Mapping[str, int | None],
                     closed_role_ids: frozenset[RoleId]) -> None:
    """Add every remaining compatible request, in arrival order.

    ``namers`` are the assignment's requests that name partners; each
    added request that names partners joins them.
    """
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
            if not _pairwise_consistent(assignment.pairs(), namers,
                                        target, request):
                continue
            members.append(request)
            taken.add(id(request))
            if request.partners:
                namers.append(request)
            continue

        if isinstance(target, str) and target in closed_families:
            index = _free_family_index(assignment, target,
                                       closed_families[target])
            if index is None:
                continue
            target = family_member(request.role_id, index)

        if target in assignment.bindings or target not in closed_role_ids:
            continue
        if not _pairwise_consistent(assignment.pairs(), namers,
                                    target, request):
            continue
        assignment.bindings[target] = request
        taken.add(id(request))
        if request.partners:
            namers.append(request)
