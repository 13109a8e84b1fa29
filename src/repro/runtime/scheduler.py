"""The deterministic cooperative scheduler.

The scheduler owns a set of generator-based processes, a virtual clock, a
rendezvous board for synchronous communication, a set of condition waiters,
and a timer queue.  It runs processes one step at a time from a FIFO ready
queue; all nondeterminism (choice among matchable rendezvous pairs, the
``Choice`` effect) is drawn from a single seeded RNG, so a run is a pure
function of the initial processes and the seed.

Virtual time only advances when no process is runnable, exactly like a
discrete-event simulator.  A *transport* hook may impose per-message latency
(see :mod:`repro.net`), in which case both parties of a committed rendezvous
resume after the latency has elapsed — the synchronous-communication analogue
of a network link.
"""

from __future__ import annotations

import heapq
import random
import struct
import zlib
from collections import deque
from operator import attrgetter
from time import perf_counter_ns
from typing import Any, Callable, Hashable, Iterable, Mapping

from ..errors import (DeadlockError, InvalidEffectError, ProcessFailure,
                      RuntimeKernelError, StepLimitExceeded,
                      UnknownProcessError)
from . import board as board_mod
from .board import OfferGroup, RendezvousBoard, make_group
from .board_index import IndexedBoard
from .effects import (TIMED_OUT_BRANCH, AddAlias, Choice, Delay, DropAlias,
                      Effect, GetName, GetTime, Latch, QueryProcesses,
                      Receive, Select, SelectResult, Send, Spawn, Trace,
                      WaitUntil)
from .instrument import Sink, defined
from .process import (_FINISHED_STATES, Process, ProcessBody,
                      ProcessState)
from .tracing import EventKind, Tracer

#: Transport hook signature: given a committed pair, return message latency.
Transport = Callable[["Scheduler", board_mod.Commit], float]

#: Match filter signature: may a rendezvous between these two processes
#: commit right now?  Installed by fault-injecting transports to model
#: link partitions: a partitioned pair simply never matches, so senders
#: block (and, with a select timeout, expire) until the link heals.
MatchFilter = Callable[[Process, Process], bool]

#: The settle loop's pick seam: draw one committable pair, or ``None``.
Pick = Callable[[random.Random], board_mod.Commit | None]


def _rng_crc(state: tuple) -> int:
    """CRC32 fingerprint of a ``random.Random`` state tuple.

    The Mersenne Twister word vector packs straight into 32-bit
    little-endian — orders of magnitude cheaper than repr'ing a 625-int
    tuple — with version and gauss-carry folded in on top.  Falls back to
    the repr of the whole tuple if the state is not the expected shape
    (a subclassed RNG, say), trading speed for the same determinism.
    """
    try:
        version, words, gauss = state
        crc = zlib.crc32(struct.pack(f"<{len(words)}I", *words))
    except (ValueError, TypeError, struct.error):
        return zlib.crc32(repr(state).encode("utf-8"))
    return zlib.crc32(repr((version, gauss)).encode("utf-8"), crc)


class RunResult:
    """Outcome of a scheduler run."""

    def __init__(self, scheduler: "Scheduler"):
        self.time = scheduler.now
        self.steps = scheduler.total_steps
        self.tracer = scheduler.tracer
        # Start from the outcomes of records replaced by Scheduler.respawn;
        # live records override on a name collision.
        self.results: dict[Hashable, Any] = dict(scheduler._past_results)
        self.results.update({
            p.name: p.result for p in scheduler.processes.values()
            if p.state is ProcessState.DONE and not p.killed})
        self.failures: dict[Hashable, BaseException] = dict(
            scheduler._past_failures)
        self.failures.update({
            p.name: p.error for p in scheduler.processes.values()
            if p.state is ProcessState.FAILED})
        self.killed: list[Hashable] = list(scheduler._past_killed) + [
            p.name for p in scheduler.processes.values() if p.killed]

    @property
    def ok(self) -> bool:
        """True when no process failed."""
        return not self.failures

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RunResult time={self.time:g} steps={self.steps} "
                f"done={len(self.results)} failed={len(self.failures)}>")


class TimerHandle:
    """Cancellation handle for a scheduled timer.

    The handle reports back to its scheduler so the armed-timer count
    stays exact without scanning the heap, and so a cancellation storm
    can trigger heap compaction.  ``owner`` names the process whose death
    should withdraw the timer (``None`` for process-independent timers
    such as fault-plan events, which must fire regardless of crashes).
    """

    __slots__ = ("action", "cancelled", "owner", "_scheduler", "_in_heap")

    def __init__(self, action: Callable[[], None],
                 scheduler: "Scheduler | None" = None,
                 owner: Hashable | None = None):
        self.action = action
        self.cancelled = False
        self.owner = owner
        self._scheduler = scheduler
        self._in_heap = True

    def cancel(self) -> None:
        """Prevent the timer from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._scheduler is not None and self._in_heap:
            self._scheduler._note_timer_cancelled(self)


class _Waiter:
    """A process blocked on a ``WaitUntil`` condition.

    ``seq`` is the scheduler-wide park order, which fixes wake order.
    """

    __slots__ = ("process", "predicate", "description", "seq")

    def __init__(self, process: Process, predicate: Callable[[], bool],
                 description: str, seq: int):
        self.process = process
        self.predicate = predicate
        self.description = description
        self.seq = seq


class Scheduler:
    """Deterministic cooperative scheduler with virtual time.

    Parameters
    ----------
    seed:
        Seed for the scheduler's RNG; fixes all nondeterministic choices.
    tracer:
        Optional shared :class:`Tracer`; a fresh one is created by default.
    max_steps:
        Upper bound on total process resumptions, to catch livelocks.
    fail_fast:
        When true (the default), an uncaught exception in any process
        aborts the run immediately with :class:`ProcessFailure`.
    transport:
        Optional latency hook applied to every committed rendezvous.
    board:
        Optional rendezvous board.  Defaults to the incremental
        :class:`~repro.runtime.board_index.IndexedBoard`; pass a
        :class:`~repro.runtime.board_oracle.OracleBoard` to match with
        the reference full scan (differential testing, debugging).
    """

    # Slot-based records: the scheduler is allocated once but *read* on
    # every hot-path operation, and slot loads skip the instance-dict
    # lookup.  Subclasses (the frozen benchmark baselines) may still add
    # ad-hoc attributes — without their own __slots__ they get a dict.
    __slots__ = (
        "seed", "rng", "tracer", "max_steps", "fail_fast", "transport",
        "match_filter", "now", "total_steps",
        "processes", "alias_owner", "_ready", "_board", "_waiters",
        "_polled", "_fired", "_park_seq", "_timers", "_timer_seq",
        "_armed_timers", "_cancelled_in_heap",
        "_process_timers", "_past_results", "_past_failures",
        "_past_killed", "_first_failure", "_kill_listeners",
        "_board_dirty", "commit_count", "_cadence_every", "_cadence_hook",
        "prof_clock", "_prof_timer_ops", "_prof_journal_ns", "_prof_polls",
        "_offer_hooks", "_commit_hooks", "_decision_hooks", "_phase_hooks",
        "_settle_hooks",
    )

    def __init__(self, seed: int = 0, tracer: Tracer | None = None,
                 max_steps: int = 1_000_000, fail_fast: bool = True,
                 transport: Transport | None = None,
                 board: RendezvousBoard | None = None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = tracer if tracer is not None else Tracer()
        self.max_steps = max_steps
        self.fail_fast = fail_fast
        self.transport = transport
        self.match_filter: MatchFilter | None = None
        self.now: float = 0.0
        self.total_steps = 0
        self.processes: dict[Hashable, Process] = {}
        self.alias_owner: dict[Hashable, Process] = {}
        self._ready: deque[Process] = deque()
        self._board = board if board is not None else IndexedBoard()
        self._board.bind(self.alias_owner)
        # Every parked waiter, in park order; the subset whose predicate
        # must be polled; and the latches set since the last wake pass
        # (each latch holds its own parked waiters until then).
        self._waiters: dict[Hashable, _Waiter] = {}
        self._polled: dict[Hashable, _Waiter] = {}
        self._fired: list[Latch] = []
        self._park_seq = 0
        self._timers: list[tuple[float, int, TimerHandle]] = []
        self._timer_seq = 0
        # Exact armed/cancelled-in-heap counts, kept live by push, fire,
        # and TimerHandle.cancel so residue checks never scan the heap.
        self._armed_timers = 0
        self._cancelled_in_heap = 0
        # Armed timers owned by a process, withdrawn when it dies.
        self._process_timers: dict[Hashable, set[TimerHandle]] = {}
        # Outcomes of finished records that respawn replaced.
        self._past_results: dict[Hashable, Any] = {}
        self._past_failures: dict[Hashable, BaseException] = {}
        self._past_killed: list[Hashable] = []
        self._first_failure: ProcessFailure | None = None
        self._kill_listeners: list[Callable[[Process], None]] = []
        # Set whenever an event that can change matchability happens
        # (post, withdraw, alias claim/release); cleared by ``_settle``.
        # Steps that leave it clear skip the settle entirely when no
        # predicate is polled and no latch fired.
        self._board_dirty = True
        # Total committed rendezvous, kept live by _commit; the cadence
        # hook (see set_commit_cadence) fires every N-th commit without
        # any observer-dispatch cost on the other N-1.
        self.commit_count = 0
        self._cadence_every = 1
        self._cadence_hook: Callable[[], None] | None = None
        # Observer callbacks, one list per callback (see observe); each
        # call site tests its list, so an unobserved run makes no call.
        self._offer_hooks: list[Callable[..., None]] = []
        self._commit_hooks: list[Callable[..., None]] = []
        self._decision_hooks: list[Callable[..., None]] = []
        self._phase_hooks: list[Callable[..., None]] = []
        self._settle_hooks: list[Callable[..., None]] = []
        # Hot-path profiling (armed only while an observer defines
        # on_phase or on_settle).  The clock is swappable so tests can
        # install a deterministic tick counter; the accumulators carry
        # timer-heap op counts, the current settle's journal (cadence-hook)
        # time and the waiters examined by wake passes out to the
        # settle's timed seams.
        self.prof_clock: Callable[[], int] = perf_counter_ns
        self._prof_timer_ops = 0
        self._prof_journal_ns = 0
        self._prof_polls = 0

    def set_commit_cadence(self, every: int,
                           hook: Callable[[], None] | None) -> None:
        """Invoke ``hook()`` after every ``every``-th committed rendezvous.

        A single slot, deliberately cheaper than an observer's
        ``on_commit``: the scheduler pays two integer operations per
        commit instead of a Python method call, which is what lets the
        journal recorder keep its snapshot cadence while staying within
        its overhead budget.  The hook fires right after the commit's
        trace event and observer callbacks, so anything it emits lands
        after the COMM frame — replay relies on that ordering being
        identical on both sides.  Pass ``hook=None`` to clear.
        """
        if every < 1:
            raise RuntimeKernelError("commit cadence must be >= 1")
        if hook is not None and self._cadence_hook is not None \
                and hook is not self._cadence_hook:
            raise RuntimeKernelError(
                "a commit-cadence hook is already installed")
        self._cadence_every = every
        self._cadence_hook = hook

    def observe(self, sink: Sink) -> None:
        """Attach observer ``sink`` to this scheduler's callbacks.

        Each callback the sink's class defines (see
        :func:`~repro.runtime.instrument.defined`) joins that callback's
        list, after the observers attached before it; the others are
        never called.
        """
        for name, hooks in (("on_offer_posted", self._offer_hooks),
                            ("on_commit", self._commit_hooks),
                            ("on_decision", self._decision_hooks),
                            ("on_phase", self._phase_hooks),
                            ("on_settle", self._settle_hooks)):
            callback = defined(sink, name)
            if callback is not None:
                hooks.append(callback)

    # ------------------------------------------------------------------
    # Residue introspection (public: soak tests and supervisors use these)
    # ------------------------------------------------------------------

    @property
    def board(self) -> RendezvousBoard:
        """The installed rendezvous board (read-only introspection)."""
        return self._board

    @property
    def board_size(self) -> int:
        """Number of processes with pending rendezvous offers."""
        return len(self._board)

    @property
    def waiter_count(self) -> int:
        """Number of processes blocked on a ``WaitUntil`` condition."""
        return len(self._waiters)

    @property
    def pending_timer_count(self) -> int:
        """Number of armed (non-cancelled) timers (O(1), kept live)."""
        return self._armed_timers

    def state_digest(self) -> dict[str, Any]:
        """Deterministic fingerprint of the scheduler's resumable state.

        Everything a journal snapshot needs to assert that a replayed
        scheduler stands exactly where the original did: virtual time,
        step count, which processes hold board offers / waiters / armed
        timers, the alias registry keys, and a CRC of the RNG state (the
        full state tuple is large; the CRC detects divergence just as
        well).  Keys are rendered with ``repr`` and sorted so the digest
        is insertion-order independent and JSON-stable.

        Equivalent to ``digest_of(state_capture())``; callers on a hot
        path take the cheap capture now and render the digest later.
        """
        return self.digest_of(self.state_capture())

    def state_capture(self) -> tuple:
        """Cheap point-in-time copy of everything :meth:`state_digest` reads.

        Shallow key copies plus the CRC of the RNG state — tens of
        microseconds, vs the repr/sort rendering cost of the digest
        itself.  The CRC is taken now rather than at render time, so a
        capture holds one int instead of the 625-int state tuple.  The
        journal recorder snapshots with this inside the run loop and
        renders via :meth:`digest_of` at the next durability point; both
        orders yield the identical digest because the capture is already
        decoupled from the live structures.
        """
        return (self.now, self.total_steps, list(self._board.groups),
                list(self._waiters), self._armed_timers,
                list(self.alias_owner), _rng_crc(self.rng.getstate()))

    @staticmethod
    def digest_of(capture: tuple) -> dict[str, Any]:
        """Render a :meth:`state_capture` into the digest mapping."""
        now, steps, board, waiters, timers, aliases, rng_crc = capture
        return {
            "now": now,
            "steps": steps,
            "board": sorted(repr(name) for name in board),
            "waiters": sorted(repr(name) for name in waiters),
            "timers": timers,
            "aliases": sorted(repr(alias) for alias in aliases),
            "rng": rng_crc,
        }

    def blocked_only_on(self, aliases: Iterable[Hashable]) -> list[Hashable]:
        """Names of processes whose *every* pending offer targets ``aliases``.

        Such processes can never commit again if the named aliases are
        permanently dead — supervisors use this to find rendezvous that a
        crash has wedged.  Offers open to any partner (receive-from-anyone)
        disqualify a process, as do offers to other, live addresses.
        """
        dead = set(aliases)
        wedged: list[Hashable] = []
        for name, group in self._board.groups.items():
            if group.offers and all(offer.partner_alias in dead
                                    for offer in group.offers):
                wedged.append(name)
        return wedged

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------

    def spawn(self, name: Hashable, body: ProcessBody) -> Process:
        """Register a new process and make it runnable."""
        if name in self.processes and not self.processes[name].finished:
            raise RuntimeKernelError(f"process name {name!r} already in use")
        process = Process(name, body)
        self.processes[name] = process
        self._claim_alias(name, process)
        self._ready.append(process)
        self.tracer.emit(self.now, EventKind.SPAWN, name)
        return process

    def respawn(self, name: Hashable, body: ProcessBody) -> Process:
        """Re-register a finished process name with a fresh body.

        Restart policies use this to bring a crashed process back: the old
        record's outcome is snapshotted first, so a later
        :class:`RunResult` still reports the kill/failure that triggered
        the restart.  Raises if the name is still running.
        """
        old = self.processes.get(name)
        if old is not None:
            if not old.finished:
                raise RuntimeKernelError(
                    f"cannot respawn {name!r}: process still running")
            if old.killed:
                self._past_killed.append(name)
            elif old.state is ProcessState.FAILED:
                self._past_failures[name] = old.error
            else:
                self._past_results[name] = old.result
            # Release any aliases the finished record still holds *before*
            # spawn re-claims the name.  Retiring released them, but an
            # extra alias added to the finished record afterwards (via
            # add_alias) would otherwise keep routing rendezvous to the
            # dead record — and claiming over it would leave the registry
            # inconsistent with ``old.aliases``.
            self._release_aliases(old)
            del self.processes[name]
        return self.spawn(name, body)

    def kill(self, name: Hashable) -> None:
        """Terminate a process immediately (fault injection).

        The process is marked done-with-kill; pending offers, waiters and
        aliases are cleaned up.  Kill listeners (see :meth:`on_kill`) then
        run — supervisors use them to apply a recovery policy; without one,
        partners block (and possibly deadlock, which is faithful to a
        crashed peer in a synchronous model).
        """
        process = self.processes.get(name)
        if process is None:
            raise UnknownProcessError(f"no process named {name!r}")
        if process.finished:
            return
        process.killed = True
        self._retire(process)
        for listener in list(self._kill_listeners):
            listener(process)

    def on_kill(self, listener: Callable[[Process], None]) -> None:
        """Register ``listener`` to be called after every :meth:`kill`."""
        self._kill_listeners.append(listener)

    def interrupt(self, name: Hashable, exc: BaseException) -> None:
        """Throw ``exc`` into a process at its current yield point.

        Whatever the process is blocked on is cancelled first: pending
        rendezvous offers are withdrawn (their expiry timers cancelled),
        condition waiters removed, and any outstanding ``Delay`` or
        in-transit resumption is invalidated.  The process resumes with
        ``exc`` raised inside it; supervisors use this to release
        survivors of an aborted performance.
        """
        process = self.processes.get(name)
        if process is None:
            raise UnknownProcessError(f"no process named {name!r}")
        if process.finished:
            return
        self._cancel_waits(name)
        self.tracer.emit(self.now, EventKind.INTERRUPT, name, error=repr(exc))
        self._throw(process, exc)

    def _cancel_waits(self, name: Hashable) -> None:
        """Withdraw whatever ``name`` is blocked on: offers, waiter, timers."""
        self._board.withdraw(name)
        self._board_dirty = True
        self._unpark(name)
        self._withdraw_process_timers(name)

    def _retire(self, process: Process,
                error: BaseException | None = None) -> None:
        """End ``process``: the one way out of the kernel.

        A return, a raise (``error``), a yield :meth:`_handle_effect`
        rejects (``error``) and a kill (``process.killed`` already set)
        all come here.  Whatever the process waits on is withdrawn, its
        aliases are released, the board forgets it, and its one
        ``proc_done`` or ``proc_fail`` is traced.  A running process has
        no offers and no waiter, and releasing its name already marks
        the board dirty, so for it the withdrawals change nothing.
        """
        name = process.name
        process.state = (ProcessState.DONE if error is None
                         else ProcessState.FAILED)
        process.error = error
        self._cancel_waits(name)
        self._release_aliases(process)
        self._board.on_retired(process)
        if error is not None:
            self.tracer.emit(self.now, EventKind.PROC_FAIL, name,
                             error=repr(error))
            if self._first_failure is None:
                self._first_failure = ProcessFailure(name, error)
        elif process.killed:
            self.tracer.emit(self.now, EventKind.PROC_DONE, name,
                             killed=True)
        else:
            self.tracer.emit(self.now, EventKind.PROC_DONE, name)

    def schedule_at(self, time: float, action: Callable[[], None]) -> "TimerHandle":
        """Run ``action()`` at virtual time ``time``.

        Returns a :class:`TimerHandle` whose ``cancel()`` removes the timer;
        cancelled timers neither fire nor hold the virtual clock back.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return self._push_timer(time, action)

    def kill_at(self, time: float, name: Hashable) -> None:
        """Schedule a process crash at virtual time ``time``."""
        self.schedule_at(time, lambda: self.kill(name))

    # ------------------------------------------------------------------
    # Alias registry
    # ------------------------------------------------------------------

    def _claim_alias(self, alias: Hashable, process: Process) -> None:
        current = self.alias_owner.get(alias)
        if current is not None and not current.finished and current is not process:
            raise RuntimeKernelError(
                f"alias {alias!r} already owned by {current.name!r}")
        if current is not None and current is not process:
            # Overwriting a finished owner's claim: release it properly
            # first so the board index drops pairs routed through the old
            # owner and ``current.aliases`` stays consistent.
            self._release_alias(alias, current)
        self.alias_owner[alias] = process
        process.aliases.add(alias)
        self._board.on_alias_claimed(alias, process)
        self._board_dirty = True

    def _release_alias(self, alias: Hashable, process: Process) -> None:
        if self.alias_owner.get(alias) is process:
            del self.alias_owner[alias]
            self._board.on_alias_released(alias, process)
            self._board_dirty = True
        process.aliases.discard(alias)

    def _release_aliases(self, process: Process) -> None:
        for alias in list(process.aliases):
            self._release_alias(alias, process)

    def add_alias(self, process_name: Hashable, alias: Hashable) -> None:
        """Register an extra address for a process (scheduler-side API)."""
        process = self.processes.get(process_name)
        if process is None:
            raise UnknownProcessError(f"no process named {process_name!r}")
        self._claim_alias(alias, process)

    def drop_alias(self, process_name: Hashable, alias: Hashable) -> None:
        """Remove an extra address from a process (scheduler-side API)."""
        process = self.processes.get(process_name)
        if process is None:
            raise UnknownProcessError(f"no process named {process_name!r}")
        self._release_alias(alias, process)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, until: float | None = None) -> RunResult:
        """Run until quiescence, deadlock, failure, or virtual time ``until``.

        Returns a :class:`RunResult`.  Raises :class:`DeadlockError` when
        blocked processes remain but nothing can ever wake them, and
        :class:`ProcessFailure` (with ``fail_fast``) on the first uncaught
        process exception.
        """
        if not self._phase_hooks:
            return self._run(until)
        # Profiled entry: the whole run is timed so phase shares have a
        # denominator; "run" is emitted last (even on deadlock/failure),
        # which is what report builders key off.
        clk = self.prof_clock
        started = clk()
        try:
            return self._run(until)
        finally:
            self._phase("run", clk() - started)

    def _phase(self, phase: str, ns: int) -> None:
        """Report ``ns`` clock units spent in ``phase`` to every observer."""
        for hook in self._phase_hooks:
            hook(phase, ns)

    def _run(self, until: float | None = None) -> RunResult:
        while True:
            if self._first_failure is not None and self.fail_fast:
                raise self._first_failure
            if not self._ready:
                self._prune_timers()
                if not self._timers:
                    if self._board.groups or self._waiters:
                        # Settle once before declaring deadlock: a skipped
                        # settle is only ever a no-op for *board* events,
                        # but out-of-band state (say, a match filter healed
                        # from inside a process body) can still unblock a
                        # pending pair.
                        self._settle()
                        if self._ready:
                            continue
                        raise DeadlockError(self._blocked_summary())
                    break
                next_time = self._timers[0][0]
                if until is not None and next_time > until:
                    self.now = until
                    break
                # Timer actions are arbitrary callbacks (heals, kills,
                # fault injections), so a clock advance always settles.
                self._advance_clock(next_time)
                self._settle()
                continue
            process = self._ready.popleft()
            if process.state in _FINISHED_STATES:  # inlined Process.finished
                continue
            if self._phase_hooks:
                clk = self.prof_clock
                step_start = clk()
                self._step(process)
                self._phase("dispatch", clk() - step_start)
            else:
                self._step(process)
            # Dirty-set settling: a step that neither posted nor withdrew
            # offers nor moved an alias cannot create a candidate pair,
            # and with no predicate polled and no latch fired there is
            # nobody to wake (a latch-parked waiter stays parked until
            # its latch is set).  Even a dirtying step is skippable when
            # the board can prove its candidate set is empty
            # (needs_settle; the full-scan board always claims it needs
            # one).
            if self._polled or self._fired or (self._board_dirty
                                               and self._board.needs_settle):
                self._settle()
        return RunResult(self)

    def _blocked_summary(self) -> dict[Hashable, str]:
        summary: dict[Hashable, str] = {}
        for name, group in self._board.groups.items():
            summary[name] = group.describe()
        for name, waiter in self._waiters.items():
            summary[name] = f"waiting until {waiter.description}"
        return summary

    def _prune_timers(self) -> None:
        while self._timers and self._timers[0][2].cancelled:
            _, _, handle = heapq.heappop(self._timers)
            handle._in_heap = False
            self._cancelled_in_heap -= 1
            if self._settle_hooks:
                self._prof_timer_ops += 1

    def _advance_clock(self, to_time: float) -> None:
        # A snapshot: the finally below must agree with this on started.
        timed = bool(self._phase_hooks)
        started = self.prof_clock() if timed else 0
        try:
            self.now = to_time
            count_ops = self._settle_hooks
            while self._timers and self._timers[0][0] <= self.now:
                _, seq, handle = heapq.heappop(self._timers)
                handle._in_heap = False
                if count_ops:
                    self._prof_timer_ops += 1
                if handle.cancelled:
                    self._cancelled_in_heap -= 1
                    continue
                self._armed_timers -= 1
                self._unregister_timer(handle)
                if self._decision_hooks:
                    for hook in self._decision_hooks:
                        hook(self.now, "timer", handle.owner, seq)
                handle.action()
            self._prune_timers()
        finally:
            if timed:
                self._phase("timers", self.prof_clock() - started)

    def _push_timer(self, time: float, action: Callable[[], None],
                    owner: Hashable | None = None) -> "TimerHandle":
        self._timer_seq += 1
        handle = TimerHandle(action, scheduler=self, owner=owner)
        heapq.heappush(self._timers, (time, self._timer_seq, handle))
        self._armed_timers += 1
        if self._settle_hooks:
            self._prof_timer_ops += 1
        if owner is not None:
            self._process_timers.setdefault(owner, set()).add(handle)
        return handle

    def _unregister_timer(self, handle: "TimerHandle") -> None:
        if handle.owner is None:
            return
        bucket = self._process_timers.get(handle.owner)
        if bucket is not None:
            bucket.discard(handle)
            if not bucket:
                del self._process_timers[handle.owner]

    def _note_timer_cancelled(self, handle: "TimerHandle") -> None:
        """Accounting callback from :meth:`TimerHandle.cancel`."""
        self._armed_timers -= 1
        self._cancelled_in_heap += 1
        self._unregister_timer(handle)
        # Compact once dead entries dominate, so long runs that cancel
        # most of their timers (chaos soaks, timeout-heavy workloads)
        # don't drag an ever-growing heap behind them.  Rebuilding keeps
        # the (time, seq) keys, so pop order — and thus determinism — is
        # unaffected.
        if len(self._timers) > 64 and \
                self._cancelled_in_heap * 2 > len(self._timers):
            live = []
            for entry in self._timers:
                if entry[2].cancelled:
                    entry[2]._in_heap = False
                else:
                    live.append(entry)
            self._timers = live
            heapq.heapify(self._timers)
            self._cancelled_in_heap = 0

    def _withdraw_process_timers(self, name: Hashable) -> None:
        """Cancel every armed timer owned by ``name`` (it died).

        Without this, a killed process's ``Delay`` / in-transit timers
        stay in the heap and keep advancing the virtual clock just to
        fire epoch-guarded no-ops, so quiescence lands late.
        """
        bucket = self._process_timers.pop(name, None)
        if bucket is None:
            return
        for handle in bucket:
            handle.owner = None  # bucket already popped
            handle.cancel()

    def _make_ready(self, process: Process, value: Any = None) -> None:
        if process.state in _FINISHED_STATES:  # inlined Process.finished
            return
        process.set_resume(value)
        process.state = ProcessState.READY
        self._ready.append(process)

    def _make_ready_if(self, process: Process, epoch: int,
                       value: Any = None) -> None:
        """Timer-safe resume: a no-op if the process was resumed since the
        timer was armed (its epoch moved on) or has finished."""
        if process.finished or process.epoch != epoch:
            return
        self._make_ready(process, value)

    def _throw(self, process: Process, exc: BaseException) -> None:
        """Schedule ``exc`` to be raised inside ``process`` and run it."""
        if process.finished:
            return
        already_queued = process.state is ProcessState.READY
        process.set_resume_exception(exc)
        if not already_queued:
            process.state = ProcessState.READY
            self._ready.append(process)

    # ------------------------------------------------------------------
    # Stepping and effect handling
    # ------------------------------------------------------------------

    def _step(self, process: Process) -> None:
        self.total_steps += 1
        if self.total_steps > self.max_steps:
            raise StepLimitExceeded(
                f"exceeded {self.max_steps} steps; livelock suspected")
        # A body that killed itself was retired by the kill: what it
        # returns, raises or yields after that is no outcome.
        try:
            effect = process.advance()
        except StopIteration as stop:
            if not process.killed:
                process.result = stop.value
                self._retire(process)
            return
        except BaseException as exc:  # noqa: BLE001 - report any failure
            if not process.killed:
                self._retire(process, exc)
            return
        if process.killed:
            return
        try:
            self._handle_effect(process, effect)
        except (InvalidEffectError, TypeError, ValueError) as exc:
            # A malformed yield is the yielding process's bug: record it as
            # that process's failure rather than crashing the scheduler.
            self._retire(process, exc)

    def _post_group(self, process: Process, group: OfferGroup,
                    timeout: float | None = None) -> None:
        """Block ``process`` on its offers, optionally with an expiry timer.

        A select's timeout arm: if the offers are still on the board when
        the timer fires they are withdrawn and the process resumes with
        ``SelectResult(TIMED_OUT_BRANCH)``; a commit (or interrupt)
        beforehand withdraws the group, which cancels the timer.
        """
        process.state = ProcessState.BLOCKED
        # Adopt the board's group: the indexed board's re-post cache may
        # return a resumed equivalent group instead of ``group``, and the
        # blocked-reason closure and expiry timer below must reference
        # the object actually on the board (the stale-timer guard
        # compares by identity).
        group = self._board.post(group)
        process._blocked_reason = group.describe  # rendered lazily on read
        self._board_dirty = True
        if self._offer_hooks:
            for hook in self._offer_hooks:
                hook(self.now, process.name)
        if timeout is None:
            return

        def expire() -> None:
            if self._board.groups.get(process.name) is not group:
                return  # already committed; stale timer
            self._board.withdraw(process.name)
            self._board_dirty = True
            self.tracer.emit(self.now, EventKind.TIMEOUT, process.name,
                             waiting=group.describe())
            self._make_ready(process, SelectResult(index=TIMED_OUT_BRANCH))

        group.expiry = self._push_timer(self.now + timeout, expire,
                                        owner=process.name)

    def _handle_effect(self, process: Process, effect: Any) -> None:
        if isinstance(effect, (Send, Receive)):
            self._post_group(process, make_group(process, [effect], plain=True))
        elif isinstance(effect, Select):
            group = make_group(process, effect.branches, plain=False)
            if effect.immediate:
                if not self._matchable(group):
                    self._make_ready(process, board_mod.else_result())
                    return
            self._post_group(process, group, timeout=effect.timeout)
        elif isinstance(effect, Delay):
            process.state = ProcessState.BLOCKED
            process.blocked_reason = f"delay({effect.duration})"
            self.tracer.emit(self.now, EventKind.DELAY, process.name,
                             duration=effect.duration)
            self._push_timer(
                self.now + effect.duration,
                lambda p=process, e=process.epoch: self._make_ready_if(p, e),
                owner=process.name)
        elif isinstance(effect, WaitUntil):
            predicate = effect.predicate
            if predicate():
                self._make_ready(process)
            else:
                process.state = ProcessState.BLOCKED
                process.blocked_reason = f"until {effect.description}"
                self._park_seq += 1
                name = process.name
                waiter = _Waiter(process, predicate, effect.description,
                                 self._park_seq)
                self._waiters[name] = waiter
                if type(predicate) is Latch:
                    predicate._parked[name] = waiter
                    predicate._fired = self._fired
                else:
                    self._polled[name] = waiter
        elif isinstance(effect, GetTime):
            self._make_ready(process, self.now)
        elif isinstance(effect, GetName):
            self._make_ready(process, process.name)
        elif isinstance(effect, Choice):
            picked = self.rng.choice(effect.options)
            if self._decision_hooks:
                for hook in self._decision_hooks:
                    hook(self.now, "choice", process.name, picked)
            self._make_ready(process, picked)
        elif isinstance(effect, QueryProcesses):
            statuses = {}
            for name in effect.names:
                peer = self.processes.get(name)
                statuses[name] = peer is None or peer.finished
            self._make_ready(process, statuses)
        elif isinstance(effect, Trace):
            self.tracer.emit(self.now, EventKind.USER, process.name,
                             user_kind=effect.kind, **effect.details)
            self._make_ready(process)
        elif isinstance(effect, Spawn):
            self.spawn(effect.name, effect.body)
            self._make_ready(process, effect.name)
        elif isinstance(effect, AddAlias):
            self._claim_alias(effect.alias, process)
            self._make_ready(process)
        elif isinstance(effect, DropAlias):
            self._release_alias(effect.alias, process)
            self._make_ready(process)
        elif isinstance(effect, Effect):
            raise InvalidEffectError(f"unhandled effect type: {effect!r}")
        else:
            raise InvalidEffectError(
                f"process {process.name!r} yielded a non-effect: {effect!r}")

    # ------------------------------------------------------------------
    # Settling: rendezvous matching and condition wake-ups
    # ------------------------------------------------------------------

    def _filter_commits(self, commits: list[board_mod.Commit]
                        ) -> list[board_mod.Commit]:
        if self.match_filter is None:
            return commits
        allow = self.match_filter
        return [c for c in commits if allow(c.sender, c.receiver)]

    def _matchable(self, group: OfferGroup) -> bool:
        """Could ``group`` commit right now (respecting the match filter)?"""
        return bool(self._filter_commits(
            self._board.candidates_for(group, self.alias_owner)))

    def _settle(self) -> None:
        """Commit matchable rendezvous and wake satisfied waiters to fixpoint.

        One drain loop serves every board and match filter: ``pick`` draws
        one committable pair with the seeded RNG (``None``, drawing
        nothing, when there is none) and ``commit`` performs it.  Commits
        only enqueue ready processes — no user code runs inside the drain
        — so with nobody to wake the board cannot refill and one drain is
        the whole fixpoint.  Each wake pass (:meth:`_wake`) polls the
        polled predicates once and wakes the waiters of fired latches; the
        drain repeats only after a pass that woke someone.

        A profiling observer gets the same loop over timed stand-ins for
        ``pick`` and ``commit`` (:meth:`_timed_seams`), so a profiled run
        makes the identical decisions and its trace is byte-identical.
        """
        self._board_dirty = False
        pick = (self._board.pick if self.match_filter is None
                else self._pick_filtered)
        commit = self._commit
        finish = None
        if self._phase_hooks or self._settle_hooks:
            pick, commit, finish = self._timed_seams(pick)
        rng = self.rng
        polled = self._polled
        fired = self._fired
        while True:
            while (pair := pick(rng)) is not None:
                commit(pair)
            # The emptiness test is inlined so kernel-only runs pay no call.
            if not (polled or fired) or not self._wake():
                break
        if finish is not None:
            finish()

    def _pick_filtered(self, rng: random.Random) -> board_mod.Commit | None:
        """The settle loop's ``pick`` while a match filter is installed:
        draws among the candidates the filter allows exactly as
        ``rng.choice`` over that list would."""
        passed = self._filter_commits(self._board.candidates(self.alias_owner))
        return rng.choice(passed) if passed else None

    def _timed_seams(self, pick: Pick) -> tuple[
            Pick, Callable[[board_mod.Commit], None], Callable[[], None]]:
        """Timed stand-ins for one settle pass's ``pick`` and ``commit``.

        Returns ``(pick, commit, finish)``.  The stand-ins call the real
        seams and only read the clock and count work around them;
        ``finish()`` reports the pass.  ``match`` covers each query (the
        board's candidate count, then the pick and its match-filter pass),
        ``commit`` the commits minus cadence-hook time (split out as
        ``journal``), and ``settle`` the pass's residual: loop bookkeeping
        and wake passes.  Phases are sent only while an observer defines
        ``on_phase``, the work counters only while one defines
        ``on_settle``.
        """
        clk = self.prof_clock
        board = self._board
        commit_pair = self._commit
        started = clk()
        self._prof_journal_ns = 0
        polls_before = self._prof_polls
        match_ns = commit_ns = commits = rounds = queries = seen = peak = 0

        def timed_pick(rng: random.Random) -> board_mod.Commit | None:
            nonlocal match_ns, queries, seen, peak, rounds
            mark = clk()
            count = board.candidate_count
            picked = pick(rng) if count else None
            match_ns += clk() - mark
            queries += 1
            seen += count
            if count > peak:
                peak = count
            if picked is None:
                rounds += 1  # every drain ends on an empty pick
            return picked

        def timed_commit(pair: board_mod.Commit) -> None:
            nonlocal commit_ns, commits
            mark = clk()
            commit_pair(pair)
            commit_ns += clk() - mark
            commits += 1

        def finish() -> None:
            if self._phase_hooks:
                journal_ns = self._prof_journal_ns
                self._phase("match", match_ns)
                self._phase("commit", commit_ns - journal_ns)
                if journal_ns:
                    self._phase("journal", journal_ns)
                residual = clk() - started - match_ns - commit_ns
                self._phase("settle", residual if residual > 0 else 0)
            for hook in self._settle_hooks:
                hook(self.now, commits, rounds, queries, seen,
                     self._prof_polls - polls_before, peak,
                     self._prof_timer_ops)

        return timed_pick, timed_commit, finish

    def _wake(self) -> bool:
        """One wake pass: ready every waiter whose condition holds.

        Polled predicates are evaluated in park order.  The waiters of
        latches set since the last pass are woken in that same order,
        each just before the first polled waiter parked after it, so the
        ready queue receives exactly the sequence a poll of every waiter
        — latches included — would give.  Returns whether anyone woke.
        """
        fired = self._fired
        polled = self._polled
        if not fired and not polled:
            return False
        due: list[_Waiter] = []
        for latch in fired:
            due.extend(latch._parked.values())
            latch._parked.clear()
        if len(fired) > 1:
            due.sort(key=attrgetter("seq"))
        fired.clear()
        self._prof_polls += len(due) + len(polled)
        woke = bool(due)
        i = 0
        pending = len(due)
        for waiter in list(polled.values()):
            while i < pending and due[i].seq < waiter.seq:
                self._resume_waiter(due[i])
                i += 1
            if waiter.predicate():
                del polled[waiter.process.name]
                self._resume_waiter(waiter)
                woke = True
        for waiter in due[i:]:
            self._resume_waiter(waiter)
        return woke

    def _resume_waiter(self, waiter: _Waiter) -> None:
        del self._waiters[waiter.process.name]
        self._make_ready(waiter.process)

    def _unpark(self, name: Hashable) -> None:
        """Drop ``name``'s waiter, if any, wherever it is parked."""
        waiter = self._waiters.pop(name, None)
        if waiter is None:
            return
        if type(waiter.predicate) is Latch:
            waiter.predicate._parked.pop(name, None)
        else:
            del self._polled[name]

    def _commit(self, commit: board_mod.Commit) -> None:
        send = commit.send
        recv = commit.recv
        sender = send.group.process
        receiver = recv.group.process
        self._board.remove_parties(commit)
        if send.group.plain and recv.group.plain and not recv.with_sender:
            # Fast path for the overwhelmingly common case — a bare
            # send/receive pair — matching resume_values() exactly.
            sender_result: Any = None
            receiver_result: Any = send.value
        else:
            sender_result, receiver_result = board_mod.resume_values(commit)
        sender_identity = (send.as_alias if send.as_alias is not None
                           else sender.name)
        delay = (self.transport(self, commit) if self.transport is not None
                 else 0.0)
        self.tracer.emit(
            self.now, EventKind.COMM, sender.name,
            receiver=receiver.name, to=send.partner_alias,
            sender_alias=sender_identity, tag=send.tag,
            value=send.value)
        if self._commit_hooks:
            for hook in self._commit_hooks:
                hook(self.now, sender.name, receiver.name)
        self.commit_count += 1
        if (self._cadence_hook is not None
                and self.commit_count % self._cadence_every == 0):
            if self._phase_hooks:
                clk = self.prof_clock
                hook_start = clk()
                self._cadence_hook()
                self._prof_journal_ns += clk() - hook_start
            else:
                self._cadence_hook()
        if delay > 0:
            self._push_timer(
                self.now + delay,
                lambda p=sender, e=sender.epoch,
                v=sender_result: self._make_ready_if(p, e, v),
                owner=sender.name)
            self._push_timer(
                self.now + delay,
                lambda p=receiver, e=receiver.epoch,
                v=receiver_result: self._make_ready_if(p, e, v),
                owner=receiver.name)
            sender.blocked_reason = "message in transit"
            receiver.blocked_reason = "message in transit"
        else:
            self._make_ready(sender, sender_result)
            self._make_ready(receiver, receiver_result)


def run_processes(bodies: Mapping[Hashable, ProcessBody] |
                  Iterable[tuple[Hashable, ProcessBody]],
                  seed: int = 0, max_steps: int = 1_000_000,
                  transport: Transport | None = None,
                  tracer: Tracer | None = None) -> RunResult:
    """Convenience entry point: spawn ``bodies`` and run to completion.

    ``bodies`` maps process names to *instantiated* generators.  Returns the
    :class:`RunResult`; raises on deadlock or process failure.
    """
    scheduler = Scheduler(seed=seed, max_steps=max_steps,
                          transport=transport, tracer=tracer)
    items = bodies.items() if isinstance(bodies, Mapping) else bodies
    for name, body in items:
        scheduler.spawn(name, body)
    return scheduler.run()
