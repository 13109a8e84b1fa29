"""The rendezvous board: pending communication offers and their matching.

Synchronous communication is implemented as a matching market.  A blocked
process contributes an *offer group* containing one offer per enabled
branch (a plain send or receive is a group of one).  The board repeatedly
looks for a send offer and a receive offer that agree on addressing and tag,
commits one such pair (chosen by the scheduler's seeded RNG, which is where
CSP's nondeterministic choice lives), and removes *all* offers of both
processes involved — a process commits to at most one branch of a select.

Offers address partners through *aliases*.  An offer to an alias that no
live process currently owns simply stays pending; this directly implements
the paper's immediate-initiation rule that "a role is delayed only if it
attempts to communicate with an unfilled role": the role address becomes
owned the moment a process enrolls, and matching is retried.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable, Iterable, TYPE_CHECKING

from .effects import (ELSE_BRANCH, Receive, ReceivedMessage, Send,
                      SelectResult)

if TYPE_CHECKING:  # pragma: no cover
    from random import Random

    from .process import Process


@dataclasses.dataclass(slots=True, eq=False)
class Offer:
    """One enabled communication branch of a blocked process.

    Offers compare (and hash) by identity: the indexed board files the
    same offer object under several buckets, and two textually identical
    offers from different processes must never collide.
    """

    group: "OfferGroup"
    index: int                       # branch index within the select
    is_send: bool
    partner_alias: Hashable | None   # Send.to, or Receive.frm (may be None)
    tag: Hashable
    value: Any = None                # payload for sends
    with_sender: bool = False        # receive wants (value, sender)
    as_alias: Hashable | None = None # identity the sender presents


@dataclasses.dataclass(slots=True, eq=False)
class OfferGroup:
    """All offers of one blocked process, plus how to build its result."""

    process: "Process"
    offers: list[Offer]
    plain: bool                      # a bare Send/Receive, not a Select
    # Timer that expires this group (a Select timeout); cancelled
    # automatically when the group leaves the board.
    expiry: Any = None
    # Monotonic post-order stamp, assigned by the board at ``post`` time.
    # Candidate ordering (and therefore which pair the seeded RNG picks)
    # is defined by it: groups posted earlier come first, exactly like
    # insertion-ordered iteration over the full-scan board's group dict.
    seq: int = 0
    # Whether the group is currently on a board.  The indexed board's
    # withdrawn-group cache keeps pairs referencing suspended groups
    # resident; this flag is how visibility is derived per pair.
    posted: bool = False
    # Cache-validity stamp at suspension time, written by the indexed
    # board's withdraw (a slot here instead of a tuple in the cache dict
    # keeps the per-rendezvous suspension bookkeeping allocation-free);
    # -1 marks an entry force-invalidated by an alias claim/release.
    cache_gen: int = 0

    def describe(self) -> str:
        """Human-readable account of what the process is waiting for."""
        parts = []
        for offer in self.offers:
            if offer.is_send:
                parts.append(f"send to {offer.partner_alias!r}")
            elif offer.partner_alias is None:
                parts.append("receive from anyone")
            else:
                parts.append(f"receive from {offer.partner_alias!r}")
        return " | ".join(parts) or "empty select"


def make_group(process: "Process", branches: Iterable[Send | Receive],
               plain: bool, sender_alias: Hashable | None = None) -> OfferGroup:
    """Build an :class:`OfferGroup` from effect branches.

    ``sender_alias`` overrides the identity presented by send branches
    (used by role contexts so partners observe role addresses, not process
    names).
    """
    group = OfferGroup(process, [], plain)
    append = group.offers.append
    for index, branch in enumerate(branches):
        # Positional Offer(...) calls: this runs for every blocked step,
        # so skip the keyword-binding overhead.  Field order is
        # (group, index, is_send, partner_alias, tag, value, with_sender,
        # as_alias) — keep in sync with the dataclass above.
        if isinstance(branch, Send):
            append(Offer(group, index, True, branch.to, branch.tag,
                         branch.value, False,
                         branch.as_alias if branch.as_alias is not None
                         else sender_alias))
        elif isinstance(branch, Receive):
            append(Offer(group, index, False, branch.frm, branch.tag,
                         None, branch.with_sender, None))
        else:
            raise TypeError(f"select branch must be Send or Receive, got {branch!r}")
    return group


@dataclasses.dataclass(slots=True, eq=False)
class Commit:
    """A matched send/receive pair, ready to be performed.

    Treat as immutable.  Not a frozen dataclass: one is allocated per
    candidate pair on the matching hot path, and ``frozen=True`` triples
    construction cost; ``eq=False`` keeps identity comparison/hashing.
    """

    send: Offer
    recv: Offer

    @property
    def sender(self) -> "Process":
        """The process whose send offer matched."""
        return self.send.group.process

    @property
    def receiver(self) -> "Process":
        """The process whose receive offer matched."""
        return self.recv.group.process


class RendezvousBoard:
    """Holds pending offer groups and finds matching pairs by full scan.

    The board does not own the alias registry; the scheduler passes a
    mapping from alias to owning process at matching time, because alias
    ownership changes as roles are filled and vacated.

    This class is the *reference* matcher: :meth:`candidates` re-derives
    every matchable pair from scratch, so its output is trivially correct
    but costs O(groups × offers × peer offers) per call.  The production
    scheduler uses :class:`repro.runtime.board_index.IndexedBoard`, which
    maintains the same pair set incrementally; this full-scan board is
    kept (re-exported as :mod:`repro.runtime.board_oracle`) as the
    differential oracle the indexed board is tested against.

    Subclass hook protocol: the scheduler calls :meth:`bind` once with
    its live alias-owner mapping (which :meth:`pick` scans against), and
    :meth:`on_alias_claimed` / :meth:`on_alias_released` (no-ops here)
    after every ownership change, because alias moves are exactly the
    non-board events that can change matchability.
    """

    def __init__(self) -> None:
        self._groups: dict[Hashable, OfferGroup] = {}
        self._post_seq = 0
        self._owner: dict[Hashable, "Process"] = {}

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, process_name: Hashable) -> bool:
        return process_name in self._groups

    @property
    def groups(self) -> dict[Hashable, OfferGroup]:
        """Pending offer groups, keyed by blocked process name."""
        return self._groups

    def post(self, group: OfferGroup) -> OfferGroup:
        """Register a blocked process's offers.

        Returns the group actually on the board.  That is ``group`` here,
        but the indexed board's re-post cache may adopt an equivalent
        previously-suspended group instead — callers must use the returned
        object for anything later compared by identity (expiry timers,
        withdrawal checks).
        """
        name = group.process.name
        if name in self._groups:
            raise RuntimeError(f"process {name!r} already has pending offers")
        self._post_seq += 1
        group.seq = self._post_seq
        group.posted = True
        self._groups[name] = group
        return group

    def withdraw(self, process_name: Hashable) -> OfferGroup | None:
        """Remove and return the offers of ``process_name``, if any.

        Any expiry timer attached to the group is cancelled, so a timeout
        can never fire for an offer that already left the board.
        """
        group = self._groups.pop(process_name, None)
        if group is not None:
            group.posted = False
            if group.expiry is not None:
                group.expiry.cancel()
        return group

    def _matches(self, send: Offer, recv: Offer,
                 owner: dict[Hashable, "Process"]) -> bool:
        sender = send.group.process
        receiver = recv.group.process
        if sender is receiver:
            return False
        target = owner.get(send.partner_alias)
        if target is not receiver:
            return False
        if recv.partner_alias is not None:
            source = owner.get(recv.partner_alias)
            if source is not sender:
                return False
        return send.tag == recv.tag

    def candidates(self, owner: dict[Hashable, "Process"]) -> list[Commit]:
        """All currently matchable send/receive pairs, in deterministic order."""
        found: list[Commit] = []
        for group in self._groups.values():
            for offer in group.offers:
                if not offer.is_send:
                    continue
                target = owner.get(offer.partner_alias)
                if target is None:
                    continue
                peer_group = self._groups.get(target.name)
                if peer_group is None:
                    continue
                for peer_offer in peer_group.offers:
                    if peer_offer.is_send:
                        continue
                    if self._matches(offer, peer_offer, owner):
                        found.append(Commit(send=offer, recv=peer_offer))
        return found

    @property
    def candidate_count(self) -> int:
        """Number of currently matchable pairs (a full scan here)."""
        return len(self.candidates(self._owner))

    def pick(self, rng: "Random") -> Commit | None:
        """Draw one candidate with ``rng.choice(candidates())``.

        Returns ``None``, drawing nothing, when no pair matches — the
        settle loop's exit.  Boards that override this must consume the
        identical draw, so a seeded run is the same on every board.
        """
        found = self.candidates(self._owner)
        return rng.choice(found) if found else None

    def candidates_for(self, group: OfferGroup,
                       owner: dict[Hashable, "Process"]) -> list[Commit]:
        """Matchable pairs involving ``group`` (which need not be posted yet)."""
        found: list[Commit] = []
        for offer in group.offers:
            if offer.is_send:
                target = owner.get(offer.partner_alias)
                if target is None or target.name not in self._groups:
                    continue
                for peer_offer in self._groups[target.name].offers:
                    if not peer_offer.is_send and self._matches(offer, peer_offer, owner):
                        found.append(Commit(send=offer, recv=peer_offer))
            else:
                for peer_group in self._groups.values():
                    for peer_offer in peer_group.offers:
                        if peer_offer.is_send and self._matches(peer_offer, offer, owner):
                            found.append(Commit(send=peer_offer, recv=offer))
        return found

    def remove_parties(self, commit: Commit) -> None:
        """Drop all offers of both processes involved in ``commit``."""
        self.withdraw(commit.sender.name)
        self.withdraw(commit.receiver.name)

    # ------------------------------------------------------------------
    # Incremental-board hook protocol (bind aside, no-ops here)
    # ------------------------------------------------------------------

    def bind(self, owner: dict[Hashable, "Process"]) -> None:
        """Adopt the scheduler's live alias-owner mapping."""
        self._owner = owner

    def on_alias_claimed(self, alias: Hashable, process: "Process") -> None:
        """``alias`` is now owned by ``process`` (no-op here)."""

    def on_alias_released(self, alias: Hashable, process: "Process") -> None:
        """``process`` no longer owns ``alias`` (no-op here)."""

    def on_retired(self, process: "Process") -> None:
        """``process`` finished and its aliases are released (no-op here)."""

    @property
    def needs_settle(self) -> bool:
        """Could a settle commit anything right now?

        The full-scan board cannot know without scanning, so it always
        answers True; the indexed board answers from its live pair set.
        The scheduler uses this to veto provably-empty settle passes.
        """
        return True

    @property
    def index_size(self) -> int:
        """Live candidate pairs held by the matcher's index (0: no index)."""
        return 0

    @property
    def dirty_events(self) -> int:
        """Cumulative index-maintenance events processed (0: no index)."""
        return 0

    @property
    def cache_hits(self) -> int:
        """Re-post pair-cache hits (0: no index, hence no cache)."""
        return 0

    @property
    def swept_pairs(self) -> int:
        """Suspended pairs torn down by stale-cache sweeps (0: no index)."""
        return 0

    def introspect(self) -> dict[str, Any]:
        """Deterministic snapshot of the matcher's internal structure.

        The full-scan board has no index, so only the group/offer census
        and the lifetime post count are reported; the indexed board
        extends this with its bucket and pair-set shape.  Used by the
        profiler's matcher-introspection report — never on a hot path.
        """
        offers = sum(len(group.offers) for group in self._groups.values())
        return {"board": type(self).__name__,
                "groups": len(self._groups),
                "offers": offers,
                "posts": self._post_seq}


def resume_values(commit: Commit) -> tuple[Any, Any]:
    """Build the (sender_result, receiver_result) for a committed pair."""
    send, recv = commit.send, commit.recv
    sender_identity = send.as_alias if send.as_alias is not None \
        else commit.sender.name

    if send.group.plain:
        sender_result: Any = None
    else:
        sender_result = SelectResult(index=send.index)

    if recv.group.plain:
        if recv.with_sender:
            receiver_result: Any = ReceivedMessage(send.value, sender_identity)
        else:
            receiver_result = send.value
    else:
        receiver_result = SelectResult(index=recv.index, value=send.value,
                                       sender=sender_identity)
    return sender_result, receiver_result


def else_result() -> SelectResult:
    """Result delivered when an immediate select takes its escape branch."""
    return SelectResult(index=ELSE_BRANCH)
