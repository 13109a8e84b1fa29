"""Incremental rendezvous matching: the alias/tag-indexed board.

:class:`IndexedBoard` keeps the *same* candidate-pair set the full-scan
:class:`~repro.runtime.board.RendezvousBoard` would derive, but maintains
it incrementally: instead of re-enumerating every send/receive pair after
every process step, it updates a live pair set on exactly the events that
can change matchability —

* :meth:`post` — a process blocked with new offers,
* :meth:`withdraw` — offers left the board (commit, timeout, interrupt),
* :meth:`on_alias_claimed` — an address gained an owner (enrollment,
  ``AddAlias``), which can route pending sends to a new target and
  authorize named receives,
* :meth:`on_alias_released` — an address lost its owner (role vacation,
  process death), which invalidates every pair routed through it,
* :meth:`on_retired` — a process finished, so its re-post cache entry
  goes.

Match-filter partitions (see ``Scheduler.match_filter``) are deliberately
*not* index events: a pair blocked by a partition stays in the live set
and is simply skipped at drain time, so a heal re-enables it at the next
settle with no re-enqueue bookkeeping — identical to the oracle, which
rediscovers the pair on its next scan.

Incremental pair maintenance across the repost/withdraw cycle
-------------------------------------------------------------
A committed rendezvous withdraws both parties, and the survivor of a
select typically re-posts an *equivalent* offer group one step later (the
fan-in hub re-arming its select, a timeout loop retrying).  Tearing down
N live pairs at withdraw and re-deriving them at re-post makes every
commit O(live pairs) — the fan-in O(N²) cliff.  The board therefore
treats withdraw as *suspension*:

* A withdrawn group's offers leave the routing buckets (so discovery and
  ``candidates_for`` cannot see them), but the pairs in which the group
  is the **receiver** stay resident, merely invisible, and the group is
  parked in a re-post cache keyed by process name.  Pairs in which the
  group is the **sender** are dropped eagerly — their sort keys embed the
  sender's post stamp, which a re-post renews.
* :meth:`post` consults the cache: if the new group is offer-equivalent
  to the suspended one and the group's *cache stamp* is unchanged since
  suspension, the suspended group is adopted wholesale: its receive-side
  pairs become visible again untouched (their keys embed only the
  senders' stamps, which did not move), and only its send offers re-run
  discovery.  Any other event ordering misses the cache and sweeps the
  stale pairs before a from-scratch discovery.
* The stamp is ``_claim_gen`` at suspension (the counter is bumped by
  every alias claim — rare, and the one event that can silently re-route
  an existing posted send into a cached receive's match set, or grow the
  suspended process's own alias set).  The two events that concern one
  suspended process alone invalidate its entry directly, forcing the
  stamp to ``-1``, which no claim count equals: a send offer entering
  the routing buckets addressed to one of its aliases (send discovery
  resolves that owner anyway, so this is one dict lookup on an
  already-fetched name), and a release of one of its own aliases.  So
  the stamp is unchanged iff no claim happened, no send arrived that a
  fresh discovery for this receiver could see, and the owned-alias set
  did not shrink.  Events that involve only *other* processes (a fan-in
  producer dying, a star hub re-targeting a different leaf) leave the
  entry alone, which is what lets hub/leaf re-posts keep hitting under
  concurrent traffic.  The entry is the cache's only record of the
  process, and it goes when the process retires.
* Alias claims and releases keep working on suspended pairs directly —
  they are still filed under ``_pairs_by_alias`` — so a cache hit can
  never resurrect a pair whose routing died while it was suspended.

The invariant that makes the arithmetic exact: **every resident pair's
sender is posted** (send-side pairs drop at the sender's withdraw), so a
resident pair is invisible if and only if its receiver is suspended, and
``len(_pairs) - _suspended_pairs`` is the exact visible-candidate count
in O(1).

Determinism argument (the candidate ordering invariant)
-------------------------------------------------------
The scheduler's seeded RNG picks from the candidate *list*, so the list
must be ordered identically to the full scan, which yields pairs in
(group-dict insertion order, send branch index, receive branch index).
Dict insertion order over currently-posted groups is exactly ascending
``OfferGroup.seq`` (a monotonic stamp assigned at post; withdrawing and
re-posting moves a group to the back of the dict *and* gives it a fresh,
larger stamp).  Each pair is therefore keyed by the integer triple
``(send.group.seq, send.index, recv.index)`` — unique, because a send
offer's target group is single-valued under the alias-owner map — and
the board maintains ``_order``, a sorted list of those keys, by bisect
insertion and deletion; no per-query sort ever runs.  A cache hit
preserves the invariant for free: the resumed group's receive-side pair
keys embed only sender stamps, and a receiver's position in the dict
does not order pairs.  Sorting-by-maintenance hence reproduces the full
scan's output byte for byte, which ``tests/runtime/test_board_oracle.py``
and ``tests/runtime/test_board_repost.py`` verify differentially over
randomized workloads.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Hashable, TYPE_CHECKING

from .board import Commit, Offer, OfferGroup, RendezvousBoard

if TYPE_CHECKING:  # pragma: no cover
    from random import Random

    from .process import Process

#: Sort/dict key of one candidate pair: (send group seq, send index,
#: recv index) — see the module docstring's ordering invariant.
PairKey = tuple[int, int, int]


class IndexedBoard(RendezvousBoard):
    """Rendezvous board with an incrementally maintained candidate set.

    The board needs the scheduler's live alias-owner mapping at *event*
    time, not just at query time: :meth:`bind` adopts it once (an owner
    dict may also be passed to the constructor for standalone use, e.g.
    unit tests).  The ``owner`` argument of :meth:`candidates` /
    :meth:`candidates_for` is accepted for interface compatibility and
    must be the bound mapping.
    """

    def __init__(self, owner: dict[Hashable, "Process"] | None = None):
        super().__init__()
        self._owner: dict[Hashable, "Process"] = owner if owner is not None \
            else {}
        # Offer buckets, keyed by the alias an offer *addresses*.
        self._sends_to: dict[Hashable, dict[Offer, None]] = {}
        self._recvs_from: dict[Hashable, dict[Offer, None]] = {}
        # The resident pair set and its removal registries.  Each pair is
        # filed under its sender's and receiver's process names in two
        # side-partitioned registries (so a withdrawal drops exactly the
        # sender-side pairs and suspends the receiver-side ones, both in
        # O(affected)) and under every alias its validity routes through
        # (so an alias release invalidates exactly the routed pairs).
        self._pairs: dict[PairKey, Commit] = {}
        self._send_pairs: dict[Hashable, dict[PairKey, None]] = {}
        self._recv_pairs: dict[Hashable, dict[PairKey, None]] = {}
        self._pairs_by_alias: dict[Hashable, set[PairKey]] = {}
        # Sorted mirror of _pairs' keys: the maintained candidate order.
        self._order: list[PairKey] = []
        # Re-post cache: suspended groups keyed by process name, each
        # stamped (``cache_gen`` slot) with the alias claim count at
        # suspension, or -1 once invalidated.  See the module docstring.
        self._suspended: dict[Hashable, OfferGroup] = {}
        # Resident pairs whose receiver is currently suspended (each such
        # pair counted exactly once — see the visibility invariant).
        self._suspended_pairs = 0
        # The cache stamp (module docstring): the global alias claim
        # count.  Removal events (withdrawals, releases) edit resident
        # pairs directly and need no counter.
        self._claim_gen = 0
        self._dirty_events = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._resumed_pairs = 0   # pairs reused across cache-hit re-posts
        self._swept_pairs = 0     # suspended pairs torn down on a miss
        # Buckets are deliberately kept when they empty: rendezvous churn
        # reuses the same alias/name keys over and over, and allocating a
        # fresh container per round both costs time and — because dicts
        # and sets are GC-tracked — drags extra cyclic-GC passes into the
        # hot path.  The exception is a released alias, whose empty
        # buckets :meth:`on_alias_released` drops.

    # ------------------------------------------------------------------
    # Wiring and introspection
    # ------------------------------------------------------------------

    def bind(self, owner: dict[Hashable, "Process"]) -> None:
        if self._groups or self._pairs:
            raise RuntimeError("cannot rebind a non-empty indexed board")
        self._owner = owner

    @property
    def needs_settle(self) -> bool:
        # Pairs blocked by a match filter stay in the set, so this can
        # answer True for a settle that then drains nothing — never the
        # reverse, which is what correctness needs.
        return len(self._pairs) > self._suspended_pairs

    @property
    def index_size(self) -> int:
        """Resident pairs, the suspended re-post cache included."""
        return len(self._pairs)

    @property
    def candidate_count(self) -> int:
        """Exact number of currently matchable pairs, in O(1)."""
        return len(self._pairs) - self._suspended_pairs

    @property
    def cache_hits(self) -> int:
        return self._cache_hits

    @property
    def swept_pairs(self) -> int:
        return self._swept_pairs

    @property
    def dirty_events(self) -> int:
        return self._dirty_events

    def introspect(self) -> dict[str, Hashable]:
        """Structure snapshot: base census plus index bucket shape.

        Bucket counts include the empties deliberately retained by the
        event handlers for live aliases and process names (see
        ``__init__``), so the report also shows how much bucket memory
        steady-state churn is holding onto.
        """
        info = super().introspect()
        send_depths = [len(bucket) for bucket in self._sends_to.values()]
        recv_depths = [len(bucket) for bucket in self._recvs_from.values()]
        info.update(
            pairs=len(self._pairs),
            visible_pairs=len(self._pairs) - self._suspended_pairs,
            suspended_pairs=self._suspended_pairs,
            suspended_groups=len(self._suspended),
            cache_hits=self._cache_hits,
            cache_misses=self._cache_misses,
            resumed_pairs=self._resumed_pairs,
            swept_pairs=self._swept_pairs,
            dirty_events=self._dirty_events,
            send_buckets=len(self._sends_to),
            recv_buckets=len(self._recvs_from),
            alias_buckets=len(self._pairs_by_alias),
            max_send_bucket=max(send_depths, default=0),
            max_recv_bucket=max(recv_depths, default=0),
        )
        return info

    # ------------------------------------------------------------------
    # Pair set maintenance
    # ------------------------------------------------------------------

    @staticmethod
    def _key(send: Offer, recv: Offer) -> PairKey:
        return (send.group.seq, send.index, recv.index)

    def _add_pair(self, send: Offer, recv: Offer) -> None:
        pairs = self._pairs
        key = (send.group.seq, send.index, recv.index)
        if key in pairs:
            return
        pairs[key] = Commit(send, recv)
        order = self._order
        if not order or key > order[-1]:
            order.append(key)
        else:
            insort(order, key)
        registry = self._send_pairs
        name = send.group.process.name
        bucket = registry.get(name)
        if bucket is None:
            registry[name] = {key: None}
        else:
            bucket[key] = None
        registry = self._recv_pairs
        name = recv.group.process.name
        bucket = registry.get(name)
        if bucket is None:
            registry[name] = {key: None}
        else:
            bucket[key] = None
        by_alias = self._pairs_by_alias
        bucket = by_alias.get(send.partner_alias)
        if bucket is None:
            by_alias[send.partner_alias] = {key}
        else:
            bucket.add(key)
        if recv.partner_alias is not None:
            bucket = by_alias.get(recv.partner_alias)
            if bucket is None:
                by_alias[recv.partner_alias] = {key}
            else:
                bucket.add(key)

    def _drop_pair(self, key: PairKey) -> None:
        commit = self._pairs.pop(key, None)
        if commit is None:
            return
        send = commit.send
        recv = commit.recv
        if not recv.group.posted:
            self._suspended_pairs -= 1
        order = self._order
        if order[-1] == key:
            order.pop()
        else:
            del order[bisect_left(order, key)]
        bucket = self._send_pairs.get(send.group.process.name)
        if bucket is not None:
            bucket.pop(key, None)
        bucket = self._recv_pairs.get(recv.group.process.name)
        if bucket is not None:
            bucket.pop(key, None)
        by_alias = self._pairs_by_alias
        send_alias = send.partner_alias
        bucket = by_alias.get(send_alias)
        if bucket is not None:
            bucket.discard(key)
        recv_alias = recv.partner_alias
        if recv_alias is not None and recv_alias != send_alias:
            bucket = by_alias.get(recv_alias)
            if bucket is not None:
                bucket.discard(key)

    def _discover_for_send(self, send: Offer) -> None:
        """Add every valid pair for one posted send offer.

        The ``_matches`` conditions are inlined with the already-resolved
        routing facts factored out: ``target`` IS the owner of the send's
        partner alias, and ``peer_group is not send.group`` implies
        distinct processes (a process has at most one posted group).
        """
        owner = self._owner
        target = owner.get(send.partner_alias)
        if target is None:
            return
        # This send is now visible to ``target``, whose suspended entry,
        # if it has one, must not hit (module docstring).  An entry it
        # gets later is stamped after this send arrived.
        name = target.name
        entry = self._suspended.get(name)
        if entry is not None:
            entry.cache_gen = -1
        peer_group = self._groups.get(name)
        if peer_group is None or peer_group is send.group:
            return
        sender = send.group.process
        tag = send.tag
        for peer in peer_group.offers:
            if peer.is_send or peer.tag != tag:
                continue
            frm = peer.partner_alias
            if frm is None or owner.get(frm) is sender:
                self._add_pair(send, peer)

    def _discover_for_recv(self, recv: Offer) -> None:
        """Add every valid pair for one posted receive offer.

        Same inlining: every send in ``self._sends_to[alias]`` already
        addresses ``alias``, and ``owner.get(alias) is process`` makes the
        receiver its routed target.
        """
        owner = self._owner
        group = recv.group
        process = group.process
        frm = recv.partner_alias
        tag = recv.tag
        for alias in process.aliases:
            if owner.get(alias) is not process:
                continue
            for send in self._sends_to.get(alias, ()):
                if send.group is group or send.tag != tag:
                    continue
                if frm is None or owner.get(frm) is send.group.process:
                    self._add_pair(send, recv)

    # ------------------------------------------------------------------
    # The re-post cache
    # ------------------------------------------------------------------

    @staticmethod
    def _equivalent(old: OfferGroup, new: OfferGroup) -> bool:
        """Same process, same shape: matching-relevant fields all equal.

        Send payloads are deliberately excluded — they never influence
        *whether* a pair matches — and refreshed at resume time instead.
        """
        if old.process is not new.process or old.plain is not new.plain:
            return False
        mine = old.offers
        theirs = new.offers
        if len(mine) != len(theirs):
            return False
        for a, b in zip(mine, theirs):
            if (a.is_send != b.is_send or a.tag != b.tag
                    or a.partner_alias != b.partner_alias
                    or a.with_sender != b.with_sender
                    or a.as_alias != b.as_alias):
                return False
        return True

    def _sweep_stale(self, old: OfferGroup) -> None:
        """Tear down a suspended group's cached receive-side pairs."""
        bucket = self._recv_pairs.get(old.process.name)
        if bucket:
            keys = list(bucket)
            self._swept_pairs += len(keys)
            for key in keys:
                self._drop_pair(key)

    def _resume(self, old: OfferGroup, new: OfferGroup) -> OfferGroup:
        """Adopt a suspended group wholesale on a cache hit.

        The cached receive-side pairs become visible again with zero
        per-pair work: visibility is derived from ``recv.group.posted``,
        their sort keys embed only sender stamps (unchanged), and their
        Commit objects still reference these very offer objects.  Send
        offers re-run discovery — their pair keys embed the fresh post
        stamp, exactly as the oracle re-orders a re-posted sender.
        """
        name = old.process.name
        self._dirty_events += 1
        self._post_seq += 1
        old.seq = self._post_seq
        old.posted = True
        old.expiry = None
        self._groups[name] = old
        cached = self._recv_pairs.get(name)
        if cached:
            self._suspended_pairs -= len(cached)
            self._resumed_pairs += len(cached)
        sends_to = self._sends_to
        recvs_from = self._recvs_from
        for mine, fresh in zip(old.offers, new.offers):
            alias = mine.partner_alias
            if mine.is_send:
                mine.value = fresh.value
                bucket = sends_to.get(alias)
                if bucket is None:
                    sends_to[alias] = {mine: None}
                else:
                    bucket[mine] = None
                self._discover_for_send(mine)
            elif alias is not None:
                bucket = recvs_from.get(alias)
                if bucket is None:
                    recvs_from[alias] = {mine: None}
                else:
                    bucket[mine] = None
        return old

    # ------------------------------------------------------------------
    # Board events
    # ------------------------------------------------------------------

    def post(self, group: OfferGroup) -> OfferGroup:
        """Register a blocked process's offers; returns the board's group.

        The returned group is the one actually on the board: ``group``
        itself, or — on a re-post cache hit — the adopted suspended group
        (offer payloads refreshed from ``group``).  Callers must use the
        returned object for anything compared by identity later (expiry
        timers, withdrawal checks).
        """
        # Base-class post, inlined (this runs twice per rendezvous).
        name = group.process.name
        groups = self._groups
        if name in groups:
            raise RuntimeError(f"process {name!r} already has pending offers")
        old = self._suspended.pop(name, None)
        if old is not None:
            if old.cache_gen == self._claim_gen \
                    and self._equivalent(old, group):
                self._cache_hits += 1
                return self._resume(old, group)
            self._cache_misses += 1
            self._sweep_stale(old)
        self._post_seq += 1
        group.seq = self._post_seq
        group.posted = True
        groups[name] = group
        self._dirty_events += 1
        sends_to = self._sends_to
        recvs_from = self._recvs_from
        # Bucket and discover in one pass: offers within one group can
        # never pair with each other (same process), so discovering offer
        # i before offer i+1 is bucketed cannot miss or duplicate a pair.
        for offer in group.offers:
            alias = offer.partner_alias
            if offer.is_send:
                bucket = sends_to.get(alias)
                if bucket is None:
                    sends_to[alias] = {offer: None}
                else:
                    bucket[offer] = None
                self._discover_for_send(offer)
            else:
                if alias is not None:
                    bucket = recvs_from.get(alias)
                    if bucket is None:
                        recvs_from[alias] = {offer: None}
                    else:
                        bucket[offer] = None
                self._discover_for_recv(offer)
        return group

    def withdraw(self, process_name: Hashable) -> OfferGroup | None:
        # Base-class withdraw, inlined (this runs twice per rendezvous).
        # Suspension, not teardown: offers leave the routing buckets and
        # sender-side pairs drop (their keys would re-stamp anyway), but
        # receive-side pairs stay resident — invisible until the group
        # either resumes through the re-post cache or its pairs die of
        # their senders' withdrawals / alias releases / a stale-miss sweep.
        group = self._groups.pop(process_name, None)
        if group is None:
            return None
        if group.expiry is not None:
            group.expiry.cancel()
        self._dirty_events += 1
        group.posted = False
        sends_to = self._sends_to
        recvs_from = self._recvs_from
        for offer in group.offers:
            alias = offer.partner_alias
            if offer.is_send:
                bucket = sends_to.get(alias)
                if bucket is not None:
                    bucket.pop(offer, None)
            elif alias is not None:
                bucket = recvs_from.get(alias)
                if bucket is not None:
                    bucket.pop(offer, None)
        send_bucket = self._send_pairs.get(process_name)
        if send_bucket:
            for key in list(send_bucket):
                self._drop_pair(key)
        recv_bucket = self._recv_pairs.get(process_name)
        if recv_bucket:
            self._suspended_pairs += len(recv_bucket)
        group.cache_gen = self._claim_gen
        self._suspended[process_name] = group
        return group

    def on_alias_claimed(self, alias: Hashable, process: "Process") -> None:
        """Route pending offers through the alias's new owner.

        Claiming can only *add* matches: sends addressed to ``alias`` now
        reach ``process``'s posted receives, and receives naming ``alias``
        as their source now accept ``process``'s posted sends.  A claim
        bumps ``_claim_gen`` — it can re-route a posted send into a
        suspended receiver's match set without any send being
        discovered.  The bump also covers the claimer's own cache entry:
        the counter only grows, so no entry stamped before the claim
        matches it again.
        """
        self._dirty_events += 1
        self._claim_gen += 1
        peer_group = self._groups.get(process.name)
        if peer_group is None:
            return
        owner = self._owner
        for send in self._sends_to.get(alias, ()):
            if send.group is peer_group:
                continue
            for peer in peer_group.offers:
                if not peer.is_send and self._matches(send, peer, owner):
                    self._add_pair(send, peer)
        for recv in self._recvs_from.get(alias, ()):
            if recv.group is peer_group:
                continue
            for send in peer_group.offers:
                if send.is_send and self._matches(send, recv, owner):
                    self._add_pair(send, recv)

    def on_alias_released(self, alias: Hashable, process: "Process") -> None:
        """Invalidate every pair whose validity routes through ``alias``.

        Suspended pairs are resident in the alias registry too, so a
        release reaches into the re-post cache exactly as it reaches the
        visible set — which is what makes cache hits provably safe.  The
        former owner's own cache entry is force-invalidated (its
        owned-alias set shrank, which the claim count cannot express);
        everyone else's stamps are untouched, so e.g. a fan-in hub keeps
        hitting its cache across producer deaths.

        The alias's buckets go too when they are empty: every performance
        claims fresh role aliases, so keeping them would grow the index
        with the performances run.
        """
        self._dirty_events += 1
        entry = self._suspended.get(process.name)
        if entry is not None:
            entry.cache_gen = -1
        for key in self._pairs_by_alias.pop(alias, ()):
            self._drop_pair(key)
        for registry in (self._sends_to, self._recvs_from):
            if alias in registry and not registry[alias]:
                del registry[alias]

    def on_retired(self, process: "Process") -> None:
        """Drop a finished process's re-post cache entry.

        No later post can adopt it (a respawn is a new process, which
        :meth:`_equivalent` rejects).  The process's aliases are released
        before this, and with them every pair routed to it, so the entry
        holds no resident pair.
        """
        self._suspended.pop(process.name, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def candidates(self, owner: dict[Hashable, "Process"]) -> list[Commit]:
        """The visible pair set, in full-scan (post/branch) order."""
        pairs = self._pairs
        if len(pairs) == self._suspended_pairs:
            return []
        if not self._suspended_pairs:
            return [pairs[key] for key in self._order]
        return [commit for key in self._order
                if (commit := pairs[key]).recv.group.posted]

    def pick(self, rng: "Random") -> Commit | None:
        """Draw one candidate exactly as ``rng.choice(candidates())`` would.

        The fast path indexes the maintained order directly — no list is
        built, no sort runs — and consumes the identical RNG draw
        (``choice`` only reads ``len`` and one item), so a run is
        byte-identical whichever path executed.  Returns ``None`` with no
        RNG consumption when no pair is visible, mirroring the settle
        loop's no-candidates exit.
        """
        pairs = self._pairs
        suspended = self._suspended_pairs
        if len(pairs) == suspended:
            return None
        if not suspended:
            return pairs[rng.choice(self._order)]
        visible = [commit for key in self._order
                   if (commit := pairs[key]).recv.group.posted]
        return rng.choice(visible)

    def candidates_for(self, group: OfferGroup,
                       owner: dict[Hashable, "Process"]) -> list[Commit]:
        """Matchable pairs involving ``group`` (which need not be posted).

        Used for the immediate-``Select`` emptiness probe; computed from
        the index buckets without touching the live pair set.
        """
        found: list[Commit] = []
        for offer in group.offers:
            if offer.is_send:
                target = owner.get(offer.partner_alias)
                if target is None:
                    continue
                peer_group = self._groups.get(target.name)
                if peer_group is None or peer_group is group:
                    continue
                for peer in peer_group.offers:
                    if not peer.is_send and self._matches(offer, peer, owner):
                        found.append(Commit(send=offer, recv=peer))
            else:
                process = group.process
                for alias in process.aliases:
                    if owner.get(alias) is not process:
                        continue
                    for send in self._sends_to.get(alias, ()):
                        if send.group is group:
                            continue
                        if self._matches(send, offer, owner):
                            found.append(Commit(send=send, recv=offer))
        return found
