"""Kernel instrumentation: the observer interface the scheduler reports into.

The kernel stays observability-agnostic: it knows only this tiny interface.
A :class:`Sink` receives low-level callbacks the trace alone cannot carry —
when a process *posted* its rendezvous offers (so match latency is
measurable), when a commit happened, and when the transport charged a
message.  Levels and counters an observer wants at those instants
(board depth, waiter depth, index counters) it reads from the scheduler
and board it attached to.  Everything derivable from
:class:`~repro.runtime.tracing.TraceEvent` streams reaches a consumer
through the tracer listener it registers itself
(:meth:`~repro.runtime.tracing.Tracer.add_listener`) instead.

Observers attach with ``Scheduler.observe`` and ``NetworkTransport.observe``,
which file each callback the observer's class defines (:func:`defined`)
in one list per callback.  Hot paths guard each call site with a test of
that list, so an unobserved scheduler pays one emptiness check per site
and nothing more.  Concrete observers live in :mod:`repro.obs` and
:mod:`repro.persist`; the kernel never imports them.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable


class Sink:
    """Base observer: every callback is a no-op.

    Subclass and define what you need; a callback the class does not
    define is never called.  Unknown data must be tolerated (the kernel
    may grow new callbacks).
    """

    def on_offer_posted(self, time: float, process: Hashable) -> None:
        """``process`` just blocked on a group of rendezvous offers."""

    def on_commit(self, time: float, sender: Hashable,
                  receiver: Hashable) -> None:
        """A rendezvous committed; its offers have left the board."""

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
        an attached observer defines this method — an unobserved
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


def defined(sink: Sink, name: str) -> Callable[..., None] | None:
    """``sink``'s callback ``name`` if its class defines one, else ``None``.

    Class-level detection: a callback set on the instance is not seen,
    and a class that inherits the no-op is never called for it — a
    journal recorder that wants decisions alone pays no per-offer call.
    """
    if getattr(type(sink), name) is getattr(Sink, name):
        return None
    return getattr(sink, name)
