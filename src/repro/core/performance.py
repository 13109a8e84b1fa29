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
"""

from __future__ import annotations

import dataclasses
from typing import Hashable

from ..runtime import Latch
from .enrollment import EnrollmentRequest
from .roles import RoleId, family_of


@dataclasses.dataclass(frozen=True, slots=True)
class RoleAddress:
    """The rendezvous alias of one role within one performance."""

    performance_id: str
    role_id: RoleId

    def __repr__(self) -> str:
        return f"{self.performance_id}:{self.role_id!r}"


class Performance:
    """State of one performance of a script instance."""

    def __init__(self, instance_name: str, seq: int):
        self.instance_name = instance_name
        self.seq = seq
        self.id = f"{instance_name}/p{seq}"
        self.filled: dict[RoleId, EnrollmentRequest] = {}
        #: The requests in ``filled`` that name partners, by role: the
        #: only bound requests that can reject a joiner.  :meth:`fill`
        #: and :meth:`vacate` keep both maps.
        self.namers: dict[RoleId, EnrollmentRequest] = {}
        self.done: set[RoleId] = set()
        self.crashed: set[RoleId] = set()
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

    def vacate(self, role_id: RoleId) -> None:
        """Unbind ``role_id``, whose process crashed; it counts as crashed."""
        del self.filled[role_id]
        self.namers.pop(role_id, None)
        self.crashed.add(role_id)

    # -- addressing -------------------------------------------------------

    def address(self, role_id: RoleId) -> RoleAddress:
        """The rendezvous alias of ``role_id`` in this performance."""
        return RoleAddress(self.id, role_id)

    # -- queries ------------------------------------------------------------

    def binding(self) -> dict[RoleId, Hashable]:
        """The full process-to-role binding."""
        return {role: req.process for role, req in self.filled.items()}

    def family_count(self, family: str) -> int:
        """How many members of ``family`` are currently filled."""
        return sum(1 for role in self.filled if family_of(role) == family)

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
        """Have all participating roles finished their bodies?"""
        return set(self.filled) <= self.done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("aborted" if self.aborted else
                 "ended" if self.ended else
                 "sealed" if self.sealed else "started")
        return (f"<Performance {self.id} {state} filled={len(self.filled)} "
                f"done={len(self.done)}>")
