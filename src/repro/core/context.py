"""The role context: what a role body sees while it performs.

Each enrolled role body receives a :class:`RoleContext` as its first
argument.  The context provides *role-addressed* communication — roles name
roles, never the concrete processes enrolled in them, exactly as in the
paper ("the naming conventions of the host-languages apply to the roles") —
plus the paper's ``r.terminated`` query and introspection helpers.

Communication is scoped to the performance: messages carry the performance
id inside their rendezvous tag, so concurrent performances of different
instances (or plain process traffic) can never cross-talk.

Communication with a role that is *absent* (unfilled when the critical role
set completed) follows the script's unfilled-role policy: it either returns
the :data:`~repro.core.policies.UNFILLED` distinguished value or raises
:class:`~repro.errors.UnfilledRoleError` (Section II, "Critical Role Set").
A named communication with a role that is merely *not yet* filled blocks
until the role fills — the immediate-initiation rule that "a role is
delayed only if it attempts to communicate with an unfilled role".
"""

from __future__ import annotations

import dataclasses
from typing import Any, Generator, Hashable, Sequence, TYPE_CHECKING

from ..errors import CrashedPartnerSignal, UnfilledRoleError
from ..runtime import (ELSE_BRANCH, TIMED_OUT, TIMED_OUT_BRANCH, Receive,
                       Select, Send, WaitUntil)
from .performance import Performance, RoleAddress
from .policies import UNFILLED, UnfilledPolicy
from .roles import RoleId, is_family_member

if TYPE_CHECKING:  # pragma: no cover
    from .instance import ScriptInstance

Body = Generator[Any, Any, Any]

#: Select result index meaning "every named branch target was absent".
ALL_ABSENT = -2


@dataclasses.dataclass(frozen=True, slots=True)
class SendTo:
    """A send branch for :meth:`RoleContext.select`."""

    role: RoleId
    value: Any
    tag: Hashable = None


@dataclasses.dataclass(frozen=True, slots=True)
class ReceiveFrom:
    """A receive branch for :meth:`RoleContext.select` (role=None: anyone)."""

    role: RoleId | None = None
    tag: Hashable = None


@dataclasses.dataclass(frozen=True, slots=True)
class RoleSelectResult:
    """Outcome of :meth:`RoleContext.select`.

    ``index`` is the position in the original branch list (or
    :data:`ALL_ABSENT` / :data:`~repro.runtime.ELSE_BRANCH`); ``value`` is
    the received value for receive branches; ``sender`` is the partner
    role id for receive branches.
    """

    index: int
    value: Any = None
    sender: RoleId | None = None


class RoleContext:
    """Handle given to a role body for the duration of one performance."""

    def __init__(self, instance: "ScriptInstance", performance: Performance,
                 role_id: RoleId, process: Hashable):
        self.instance = instance
        self.performance = performance
        self.role_id = role_id
        self.process = process

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def index(self) -> int | None:
        """This role's family index, or ``None`` for singleton roles."""
        if is_family_member(self.role_id):
            return self.role_id[1]
        return None

    def terminated(self, role_id: RoleId) -> bool:
        """The paper's ``r.terminated``: finished, or definitely absent."""
        return self.performance.role_terminated(role_id)

    def is_filled(self, role_id: RoleId) -> bool:
        """Whether ``role_id`` is (currently) filled in this performance."""
        return role_id in self.performance.filled

    def partners(self) -> dict[RoleId, Hashable]:
        """The current process-to-role binding of this performance."""
        return self.performance.binding()

    def enrolled_count(self, family: str) -> int:
        """How many members of ``family`` are enrolled so far."""
        return self.performance.family_count(family)

    def family_indices(self, family: str) -> list[int]:
        """Indices of the currently enrolled members of ``family``."""
        return self.performance.family_indices(family)

    def close_enrollment(self) -> None:
        """Seal the current performance (open-ended scripts, Section V)."""
        self.instance.seal_current()

    # ------------------------------------------------------------------
    # Addressing internals
    # ------------------------------------------------------------------

    def _my_alias(self) -> RoleAddress:
        return self.performance.address(self.role_id)

    def _wrap_tag(self, tag: Hashable) -> Hashable:
        return (self.performance.id, tag)

    def _handle_absent(self, role_id: RoleId) -> Any:
        if self.instance.unfilled is UnfilledPolicy.ERROR:
            raise UnfilledRoleError(
                f"role {self.role_id!r} communicated with absent role "
                f"{role_id!r} in performance {self.performance.id}")
        return UNFILLED

    def _await_filled_or_absent(self, role_id: RoleId) -> Body:
        """Block until ``role_id`` is filled or definitely absent."""
        performance = self.performance
        yield WaitUntil(
            lambda: role_id in performance.filled
            or performance.is_absent(role_id),
            f"role {role_id!r} filled or absent")

    def _sender_role(self, sender_alias: Any) -> RoleId | None:
        if isinstance(sender_alias, RoleAddress):
            return sender_alias.role_id
        return sender_alias

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------

    def send(self, role_id: RoleId, value: Any, tag: Hashable = None) -> Body:
        """Send ``value`` to ``role_id``, synchronously.

        Blocks while the target is unfilled-but-fillable; applies the
        unfilled-role policy when the target is absent.  Returns ``None``
        on success, :data:`UNFILLED` for an absent partner.
        """
        yield from self._await_filled_or_absent(role_id)
        if self.performance.is_absent(role_id):
            return self._handle_absent(role_id)
        try:
            yield Send(self.performance.address(role_id), value,
                       tag=self._wrap_tag(tag), as_alias=self._my_alias())
        except CrashedPartnerSignal:
            # The partner died mid-rendezvous and was supervised into
            # absence: same policy as sending to an absent role.
            return self._handle_absent(role_id)
        return None

    def receive(self, role_id: RoleId | None = None, tag: Hashable = None,
                with_sender: bool = False,
                timeout: float | None = None) -> Body:
        """Receive from ``role_id`` (or from any role when ``None``).

        Returns the received value, or ``(value, sender_role_id)`` with
        ``with_sender=True``; returns :data:`UNFILLED` (or raises) when the
        named partner is absent.  With ``timeout=`` the *rendezvous* wait
        (not the wait for the role to fill) is a one-branch ``Select``
        with that timeout: if no partner commits within that many
        virtual-time units the distinguished falsy value
        :data:`~repro.runtime.TIMED_OUT` is returned instead.
        """
        if role_id is not None:
            yield from self._await_filled_or_absent(role_id)
            if self.performance.is_absent(role_id):
                return self._handle_absent(role_id)
            source: Any = self.performance.address(role_id)
        else:
            source = None
        try:
            if timeout is None:
                message = yield Receive(source, tag=self._wrap_tag(tag),
                                        with_sender=True)
            else:
                message = yield Select(
                    (Receive(source, tag=self._wrap_tag(tag)),),
                    timeout=timeout)
                if message.index == TIMED_OUT_BRANCH:
                    return TIMED_OUT
        except CrashedPartnerSignal:
            if role_id is None:  # pragma: no cover - defensive
                raise
            return self._handle_absent(role_id)
        if with_sender:
            return message.value, self._sender_role(message.sender)
        return message.value

    def broadcast(self, family: str, value: Any, tag: Hashable = None) -> Body:
        """Send ``value`` to every currently filled member of ``family``.

        Convenience over :meth:`send`; members are visited in index order.
        Returns the list of indices reached.
        """
        indices = self.family_indices(family)
        for index in indices:
            yield from self.send((family, index), value, tag=tag)
        return indices

    def gather(self, family: str, tag: Hashable = None) -> Body:
        """Receive one value from every filled member of ``family``.

        Values are taken as they arrive (a select over the family), so slow
        members do not block fast ones.  Returns {index: value}.
        """
        pending = set(self.family_indices(family))
        collected: dict[int, Any] = {}
        while pending:
            # Members that crashed (or were absent all along) will never
            # answer; prune them before blocking on the rest.
            pending = {index for index in pending
                       if not self.performance.is_absent((family, index))}
            if not pending:
                break
            result = yield from self.select(
                [ReceiveFrom((family, index), tag=tag)
                 for index in sorted(pending)])
            if result.index == ALL_ABSENT:
                continue  # re-prune and re-check
            index = result.sender[1]
            collected[index] = result.value
            pending.discard(index)
        return collected

    def select(self, branches: Sequence[SendTo | ReceiveFrom],
               immediate: bool = False,
               timeout: float | None = None) -> Body:
        """Wait for one of several role communications to commit.

        Branches whose named target is *absent* are dropped; if every
        branch is dropped the result has ``index == ALL_ABSENT`` (under the
        DISTINGUISHED policy) or :class:`UnfilledRoleError` is raised.
        With ``immediate=True`` the result may have ``index ==
        ELSE_BRANCH`` when nothing can commit right now.  With ``timeout=``
        the result may have ``index ==``
        :data:`~repro.runtime.TIMED_OUT_BRANCH` when no branch committed in
        time.  If a partner crashes while we wait, the select is retried
        with the (now absent) branches dropped.
        """
        live_indices: list[int] = []
        effects: list[Send | Receive] = []
        for position, branch in enumerate(branches):
            if isinstance(branch, SendTo):
                if self.performance.is_absent(branch.role):
                    continue
                effects.append(Send(self.performance.address(branch.role),
                                    branch.value, tag=self._wrap_tag(branch.tag),
                                    as_alias=self._my_alias()))
            elif isinstance(branch, ReceiveFrom):
                if branch.role is not None:
                    if self.performance.is_absent(branch.role):
                        continue
                    source: Any = self.performance.address(branch.role)
                else:
                    source = None
                effects.append(Receive(source, tag=self._wrap_tag(branch.tag)))
            else:
                raise TypeError(f"select branch must be SendTo or "
                                f"ReceiveFrom, got {branch!r}")
            live_indices.append(position)

        if not effects:
            if self.instance.unfilled is UnfilledPolicy.ERROR:
                raise UnfilledRoleError(
                    f"role {self.role_id!r}: every select branch targets an "
                    f"absent role in performance {self.performance.id}")
            return RoleSelectResult(index=ALL_ABSENT)

        try:
            result = yield Select(tuple(effects), immediate=immediate,
                                  timeout=timeout)
        except CrashedPartnerSignal:
            # Some partner died mid-wait; crashed roles are now absent, so
            # the retry drops their branches (or reports ALL_ABSENT).
            return (yield from self.select(branches, immediate=immediate,
                                           timeout=timeout))
        if result.index == ELSE_BRANCH:
            return RoleSelectResult(index=ELSE_BRANCH)
        if result.index == TIMED_OUT_BRANCH:
            return RoleSelectResult(index=TIMED_OUT_BRANCH)
        return RoleSelectResult(index=live_indices[result.index],
                                value=result.value,
                                sender=self._sender_role(result.sender))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RoleContext {self.role_id!r} of {self.performance.id} "
                f"played by {self.process!r}>")
