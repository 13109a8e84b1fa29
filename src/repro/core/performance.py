"""Performances: one collective activation of a script's roles.

The paper calls "the collective activation of all the roles of a script a
*performance*" and imposes the successive-activations rule: "all of the
roles of a given performance must terminate before a subsequent performance
of the same script can begin" (Figure 1).  A :class:`Performance` tracks the
binding of processes to roles, which roles have finished, and which roles
were left unfilled (absent) when the critical role set completed.

A performance exists only once its roles may execute: immediate
initiation creates it at its first enrollment, delayed initiation only
once a critical role set is consistently filled.  Lifecycle flags:

``sealed``
    The participant set is final: a critical role set is covered, so every
    still-unfilled role is *absent* and reports ``terminated = true`` (the
    paper's ``r.terminated`` function).  Late enrollments go to the next
    performance.
``ended``
    Every filled role's body has finished (or the performance was
    aborted); the successive-activations rule then allows the next
    performance to form.  A read-only view of the ``finished`` latch,
    which delayed-termination participants wait on.

Three methods change a binding: :meth:`Performance.fill`,
:meth:`Performance.vacate` and :meth:`Performance.finish`.  They keep
what the binding implies up to date, so no query rescans it: per
critical set, how many of its items are still missing (``covered`` is
then a count read); per family, how many members are filled; and
whether every filled role has finished.  A performance also hands out
one :class:`RoleAddress` per role, so the kernel's alias tables find a
role's address by identity.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Mapping, Sequence

from ..errors import PerformanceError
from ..runtime import Latch
from .enrollment import EnrollmentRequest
from .roles import RoleId, family_of


@dataclasses.dataclass(frozen=True, slots=True)
class RoleAddress:
    """The rendezvous alias of one role within one performance.

    The hash is the one the generated ``__hash__`` would compute, so sets
    of addresses iterate as they always did, but it is taken once, at
    creation.  An address built afresh still compares and hashes equal to
    the one its performance hands out.
    """

    performance_id: str
    role_id: RoleId
    _hash: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash",
                           hash((self.performance_id, self.role_id)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.performance_id}:{self.role_id!r}"


@dataclasses.dataclass(frozen=True, slots=True)
class CriticalTable:
    """A script instance's critical sets, in the form a performance counts.

    ``sets_of`` maps each critical item (a concrete role id, or an open
    family's name) to the indices of the sets that hold it, in fill
    order; ``open_min`` maps each open family to its ``min_count``; and
    ``missing`` holds, per set, how many items an empty performance
    lacks.  An open family with ``min_count`` 0 is never missing.
    """

    sets_of: Mapping[Hashable, tuple[int, ...]]
    open_min: Mapping[str, int]
    missing: tuple[int, ...]

    @classmethod
    def build(cls, critical_sets: Sequence[Sequence[Hashable]],
              open_min: Mapping[str, int]) -> "CriticalTable":
        """The table of ``critical_sets``, given the open families' minima."""
        never_missing = [name for name, low in open_min.items() if low == 0]
        sets_of: dict[Hashable, tuple[int, ...]] = {}
        missing = []
        for index, critical in enumerate(critical_sets):
            # ``dict.fromkeys`` fills a set's entries in one C loop: every
            # instance builds the table, and a broadcast's set has N + 1
            # items.
            held = dict.fromkeys(critical, (index,))
            for item in held.keys() & sets_of.keys():
                held[item] = sets_of[item] + (index,)
            sets_of.update(held)
            missing.append(len(held) - sum(name in held
                                           for name in never_missing))
        return cls(sets_of, dict(open_min), tuple(missing))


class Performance:
    """State of one performance of a script instance."""

    def __init__(self, instance_name: str, seq: int,
                 critical: CriticalTable):
        self.instance_name = instance_name
        self.seq = seq
        self.id = f"{instance_name}/p{seq}"
        self.filled: dict[RoleId, EnrollmentRequest] = {}
        #: The requests in ``filled`` that name partners, by role: the
        #: only bound requests that can reject a joiner.  :meth:`fill`
        #: and :meth:`vacate` keep both maps.
        self.namers: dict[RoleId, EnrollmentRequest] = {}
        #: Filled roles whose body has finished; always a subset of
        #: ``filled`` (:meth:`finish` and :meth:`vacate` refuse otherwise).
        self.done: set[RoleId] = set()
        self.crashed: set[RoleId] = set()
        #: Per critical set, in fill order, how many of its items are not
        #: yet satisfied; :meth:`fill` and :meth:`vacate` keep the counts.
        self.missing: list[int] = list(critical.missing)
        self._critical = critical
        self._members: dict[str, int] = {}
        self._addresses: dict[RoleId, RoleAddress] = {}
        self.sealed = False
        self.finished = Latch()
        self.aborted = False

    # -- binding ------------------------------------------------------------

    def fill(self, role_id: RoleId, request: EnrollmentRequest) -> None:
        """Bind ``request`` to ``role_id``.

        A vacated-then-refilled role (pre-seal crash, new enrollee — e.g.
        a supervised restart) is no longer crashed: its address is live
        again and must not poison later absent-fallback dead sets.
        """
        self.filled[role_id] = request
        if request.partners:
            self.namers[role_id] = request
        self.crashed.discard(role_id)
        self._count(role_id, 1)

    def vacate(self, role_id: RoleId) -> None:
        """Unbind ``role_id``, whose process crashed; it counts as crashed.

        Only a role whose body has not finished can be vacated.
        """
        if role_id in self.done:
            raise PerformanceError(
                f"{self.id}: finished role {role_id!r} cannot be vacated")
        del self.filled[role_id]
        self.namers.pop(role_id, None)
        self.crashed.add(role_id)
        self._count(role_id, -1)

    def finish(self, role_id: RoleId) -> None:
        """Record that the body of filled role ``role_id`` has finished."""
        if role_id not in self.filled:
            raise PerformanceError(
                f"{self.id}: role {role_id!r} is not filled")
        self.done.add(role_id)

    def _count(self, role_id: RoleId, step: int) -> None:
        """Move the counts by ``role_id`` filled (``step`` 1) or vacated (-1)."""
        sets_of = self._critical.sets_of
        missing = self.missing
        for index in sets_of.get(role_id, ()):
            missing[index] -= step
        family = family_of(role_id)
        if family is not None:
            before = self._members.get(family, 0)
            self._members[family] = before + step
            # An open family is satisfied from its min_count-th member
            # on: the fill that reaches that count and the vacate that
            # leaves it move the sets that hold the family.
            threshold = self._critical.open_min.get(family)
            if threshold and max(before, before + step) == threshold:
                for index in sets_of.get(family, ()):
                    missing[index] -= step

    # -- addressing -------------------------------------------------------

    def address(self, role_id: RoleId) -> RoleAddress:
        """The rendezvous alias of ``role_id`` in this performance.

        The same object on every call for the same role.
        """
        address = self._addresses.get(role_id)
        if address is None:
            address = self._addresses[role_id] = RoleAddress(self.id, role_id)
        return address

    # -- queries ------------------------------------------------------------

    def binding(self) -> dict[RoleId, Hashable]:
        """The full process-to-role binding."""
        return {role: req.process for role, req in self.filled.items()}

    @property
    def covered(self) -> bool:
        """Do the filled roles cover some critical set?"""
        return 0 in self.missing

    def family_count(self, family: str) -> int:
        """How many members of ``family`` are currently filled."""
        return self._members.get(family, 0)

    def family_indices(self, family: str) -> list[int]:
        """Sorted indices of the filled members of ``family``."""
        return sorted(role[1] for role in self.filled
                      if family_of(role) == family)

    def is_absent(self, role_id: RoleId) -> bool:
        """True when the participant set is final and ``role_id`` is not in it.

        A role whose process crashed mid-performance (and was supervised
        into absence) counts: its crash removed it from the participant
        set, so partners observe exactly the unfilled-role semantics.
        """
        return self.sealed and role_id not in self.filled

    def is_crashed(self, role_id: RoleId) -> bool:
        """True when ``role_id`` was vacated by a supervised process crash."""
        return role_id in self.crashed

    def role_terminated(self, role_id: RoleId) -> bool:
        """The paper's ``r.terminated`` function (Section II / Figure 5).

        False for unfilled roles while the critical set is incomplete; true
        for absent roles once it completes; true for filled roles whose
        body has finished.
        """
        if role_id in self.done:
            return True
        return self.is_absent(role_id)

    @property
    def ended(self) -> bool:
        """True once the ``finished`` latch is set."""
        return self.finished.is_set

    @property
    def all_filled_done(self) -> bool:
        """Have all participating roles finished their bodies?

        ``done`` is a subset of ``filled``, so comparing sizes suffices.
        """
        return len(self.done) == len(self.filled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("aborted" if self.aborted else
                 "ended" if self.ended else
                 "sealed" if self.sealed else "started")
        return (f"<Performance {self.id} {state} filled={len(self.filled)} "
                f"done={len(self.done)}>")
