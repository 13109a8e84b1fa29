"""Enrollment requests and partner-naming constraints.

The paper distinguishes *partners-named* enrollment (the enrolling process
names which processes must fill (some of) the other roles), *partners-
unnamed* enrollment (no constraints), and mixtures with partial naming.  It
also allows disjunctive naming ("a given role should be fulfilled by either
process A or process B").

An :class:`EnrollmentRequest` therefore carries, besides the target role and
actual parameters, a mapping from partner role ids to *sets* of acceptable
process names.  Joint enrollment requires all co-enrolled requests to agree
on the binding of processes to roles; the search for such an agreement lives
in :mod:`repro.core.matching`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Hashable, Mapping

from ..errors import EnrollmentError
from ..runtime import Latch
from .roles import RoleId

_request_counter = itertools.count()

#: Normalised partner constraints: role id -> set of acceptable processes.
PartnerConstraints = dict[RoleId, frozenset[Hashable]]


def normalize_partners(partners: Mapping[RoleId, Any] | None
                       ) -> PartnerConstraints:
    """Normalise a user-supplied ``partners`` mapping.

    Values may be a single process name, or an iterable of names (the
    disjunctive "A or B" form).  Strings and tuples count as single names —
    tuples are process-array addresses like ``("recipient", 3)`` — so only
    lists, sets and frozensets denote disjunction.
    """
    if not partners:
        return {}
    normalised: PartnerConstraints = {}
    for role_id, spec in partners.items():
        if isinstance(spec, (list, set, frozenset)):
            names = frozenset(spec)
            if not names:
                raise EnrollmentError(
                    f"empty partner set for role {role_id!r}")
        else:
            names = frozenset([spec])
        normalised[role_id] = names
    return normalised


@dataclasses.dataclass(eq=False)
class EnrollmentRequest:
    """One attempt by a process to enroll in a role of a script instance.

    ``role_id`` may name a singleton role, a family member, or — for open
    families — a bare family name, meaning "any fresh index" (the
    coordinator then picks the next free index).
    """

    process: Hashable
    role_id: RoleId
    actuals: dict[str, Any]
    partners: PartnerConstraints
    seq: int = dataclasses.field(default_factory=lambda: next(_request_counter))
    # Filled in at assignment:
    performance: Any = None
    assigned_role: RoleId | None = None
    #: Set when the request is bound to a role — the one record of the
    #: binding; the enrolling process waits on it.
    accepted: Latch = dataclasses.field(default_factory=Latch)

    @property
    def assigned(self) -> bool:
        """True once this request is bound to a role of a performance."""
        return self.accepted.is_set

    def accepts_binding(self, role_id: RoleId, process: Hashable) -> bool:
        """Does this request allow ``process`` to fill ``role_id``?"""
        allowed = self.partners.get(role_id)
        return allowed is None or process in allowed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EnrollmentRequest #{self.seq} {self.process!r} as "
                f"{self.role_id!r}>")
