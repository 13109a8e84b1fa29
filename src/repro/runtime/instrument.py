"""Kernel instrumentation: the sink interface the scheduler reports into.

The kernel stays observability-agnostic: it knows only this tiny interface.
A :class:`Sink` receives low-level callbacks the trace alone cannot carry —
when a process *posted* its rendezvous offers (so match latency is
measurable), when a commit happened (with board/waiter depth at that
instant), and when the transport charged a message.  Everything derivable
from :class:`~repro.runtime.tracing.TraceEvent` streams reaches a consumer
through the tracer listener it registers itself
(:meth:`~repro.runtime.tracing.Tracer.add_listener`) instead.

The default sink is :data:`NULL_SINK`, a null object that is *falsy*: hot
paths guard each callback with ``if self.sink:``, so an uninstrumented
scheduler pays one truthiness check per call site and nothing more.
Concrete sinks live in :mod:`repro.obs`; the kernel never imports them.
"""

from __future__ import annotations

from typing import Any, Hashable


class Sink:
    """Base instrumentation sink: every callback is a no-op.

    Subclass and override what you need; unknown data must be tolerated
    (the kernel may grow new callbacks).  A real sink is truthy, which is
    what arms the kernel's ``if self.sink:`` guards.
    """

    def __bool__(self) -> bool:
        return True

    def on_offer_posted(self, time: float, process: Hashable) -> None:
        """``process`` just blocked on a group of rendezvous offers."""

    def on_commit(self, time: float, sender: Hashable, receiver: Hashable,
                  board_size: int, waiter_count: int) -> None:
        """A rendezvous committed; depths are sampled after the removal."""

    def on_index(self, time: float, pairs: int, dirty_events: int,
                 cache_hits: int, swept_pairs: int) -> None:
        """Matcher-index depth sample, taken at each commit.

        ``pairs`` is the number of resident candidate pairs the
        incremental board holds (the suspended re-post cache included);
        ``dirty_events`` the cumulative count of index maintenance events
        (posts, withdrawals, alias claims/releases); ``cache_hits`` the
        cumulative re-post pair-cache hits and ``swept_pairs`` the
        cumulative suspended pairs torn down by stale-cache sweeps.  All
        are 0 when the scheduler runs the full-scan oracle board.
        """

    def on_message(self, time: float, src: Any, dst: Any,
                   latency: float) -> None:
        """The network transport charged one message ``src`` -> ``dst``."""

    def on_decision(self, time: float, kind: str, subject: Hashable,
                    payload: Any) -> None:
        """The scheduler resolved a decision the trace does not carry.

        ``kind`` is ``"choice"`` (a ``Choice`` effect was drawn from the
        seeded RNG; ``payload`` is the picked option) or ``"timer"`` (an
        armed timer fired; ``subject`` is its owner, ``payload`` its heap
        sequence number).  Together with the trace events these callbacks
        cover every nondeterminism-resolving step, which is what the
        durable journal (:mod:`repro.persist`) records and replays.
        """

    def on_phase(self, phase: str, ns: int) -> None:
        """``ns`` clock units were just spent inside kernel phase ``phase``.

        The phase taxonomy (see DESIGN.md §13): ``dispatch`` (one process
        step: resume + effect handling), ``match`` (candidate-set queries
        and match-filter passes), ``commit`` (performing a committed
        rendezvous, journal time excluded), ``journal`` (the commit-cadence
        hook, i.e. the durable recorder), ``settle`` (settle-loop overhead
        and wake passes, the residual of a settle pass), ``timers``
        (virtual-clock advances: heap pops and timer actions), and ``run``
        (one whole ``Scheduler.run``, emitted last — the denominator for
        percentage-of-wall attribution).  Readings come from the
        scheduler's ``prof_clock`` (``time.perf_counter_ns`` by default;
        tests install a deterministic tick counter).  Only emitted while
        an installed sink overrides this method — an uninstrumented
        scheduler never reads the clock.
        """

    def on_settle(self, time: float, commits: int, rounds: int,
                  queries: int, candidates: int, waiters_polled: int,
                  index_pairs: int, timer_ops: int) -> None:
        """One settle pass finished; its work counters, all deterministic.

        ``commits`` rendezvous committed this pass over ``rounds``
        drains (one, plus one per wake pass that readied someone);
        ``queries`` candidate queries saw ``candidates`` pairs in total,
        counted by the board before any match-filter veto;
        ``waiters_polled`` waiters were examined (polled predicates
        evaluated plus latch-parked waiters woken).  ``index_pairs`` is
        the peak candidate-set depth observed during the pass (the board
        drains as commits land, so a post-pass sample would always read
        ~0) and ``timer_ops`` is the scheduler-lifetime cumulative
        count of timer-heap operations (pushes, fires, cancelled pops) —
        a gauge, so the last sample is the run total.
        """


class TeeSink(Sink):
    """Fan every callback out to several sinks, in order.

    Lets two consumers — say a metrics sink and a journal recorder —
    share one scheduler without either knowing about the other.  Falsy
    sinks are dropped at construction, and a tee over nothing is itself
    falsy, so the kernel's ``if self.sink:`` guards keep working.
    """

    def __init__(self, *sinks: Sink):
        self.sinks: list[Sink] = [sink for sink in sinks if sink]

    def __bool__(self) -> bool:
        return bool(self.sinks)

    def on_offer_posted(self, time: float, process: Hashable) -> None:
        for sink in self.sinks:
            sink.on_offer_posted(time, process)

    def on_commit(self, time: float, sender: Hashable, receiver: Hashable,
                  board_size: int, waiter_count: int) -> None:
        for sink in self.sinks:
            sink.on_commit(time, sender, receiver, board_size, waiter_count)

    def on_index(self, time: float, pairs: int, dirty_events: int,
                 cache_hits: int, swept_pairs: int) -> None:
        for sink in self.sinks:
            sink.on_index(time, pairs, dirty_events, cache_hits,
                          swept_pairs)

    def on_message(self, time: float, src: Any, dst: Any,
                   latency: float) -> None:
        for sink in self.sinks:
            sink.on_message(time, src, dst, latency)

    def on_decision(self, time: float, kind: str, subject: Hashable,
                    payload: Any) -> None:
        for sink in self.sinks:
            sink.on_decision(time, kind, subject, payload)

    def on_phase(self, phase: str, ns: int) -> None:
        for sink in self.sinks:
            sink.on_phase(phase, ns)

    def on_settle(self, time: float, commits: int, rounds: int,
                  queries: int, candidates: int, waiters_polled: int,
                  index_pairs: int, timer_ops: int) -> None:
        for sink in self.sinks:
            sink.on_settle(time, commits, rounds, queries, candidates,
                           waiters_polled, index_pairs, timer_ops)


def stack_sink(existing: Sink, sink: Sink) -> Sink:
    """``sink`` installed on top of ``existing``, which keeps reporting.

    Every attacher goes through this rule, so attaching one consumer
    never silently detaches another (a journal recorder under a metrics
    sink keeps every decision frame).  Alone, ``sink`` is installed
    directly: a tee over the null sink would re-dispatch every callback
    through a one-element loop.
    """
    return TeeSink(existing, sink) if existing else sink


def sink_overrides(sink: Sink, name: str) -> bool:
    """Does ``sink`` actually implement callback ``name``?

    Class-level detection (per-instance monkeypatches are not seen), the
    basis of the scheduler's capability flags: a hot-path call site only
    dispatches callbacks the installed sink's class overrides.  A
    :class:`TeeSink` claims a callback iff any member does, so wrapping a
    commit-only recorder in a tee does not suddenly arm every hook.
    """
    if isinstance(sink, TeeSink):
        return any(sink_overrides(member, name) for member in sink.sinks)
    return getattr(type(sink), name) is not getattr(Sink, name)


class NullSink(Sink):
    """The no-op sink; falsy so guarded call sites skip the call entirely."""

    def __bool__(self) -> bool:
        return False


#: Shared null object installed on every uninstrumented scheduler/transport.
NULL_SINK = NullSink()
