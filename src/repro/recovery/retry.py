"""Performance retry: an at-most-once budget for re-running aborted work.

An aborted performance (critical role crashed post-seal) releases its
survivors with :class:`~repro.errors.PerformanceAborted`; harness loops
typically catch that and re-enroll, which — through the instance's normal
pooling — re-drafts the participants into a fresh performance.  What the
bare loop lacks is *accounting*: how many re-runs are allowed, which
attempt is which in the trace, and when to give up.

:class:`PerformanceRetry` supplies exactly that as a tracer listener:

* each abort of the watched instance consumes one unit of a bounded
  retry budget (at most once per performance id, so a single abort can
  never be double-billed);
* each grant bumps a *performance epoch* stamped into the trace
  (``RECOVERY action=performance_retry epoch=…``), so retried attempts
  are distinguishable in replay;
* the first abort past the budget flips :attr:`exhausted` and emits
  ``retry_exhausted`` — harness ``done()``/``withdraw_when`` predicates
  observe the flag and stand down;
* the next completed performance after a grant is counted as *recovered*
  (``performance_recovered``).

Zero residue between attempts is the script layer's own guarantee (the
abort path withdraws offers, drops aliases and clears the pool entry of
the dead process); the recovery soak re-checks it after every run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import RecoveryError
from ..runtime import EventKind
from ..runtime.tracing import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..core.instance import ScriptInstance


class PerformanceRetry:
    """At-most-once retry budget for one script instance's performances."""

    def __init__(self, instance: "ScriptInstance", max_retries: int = 1):
        if max_retries < 0:
            raise RecoveryError("max_retries must be >= 0")
        self.instance = instance
        self.max_retries = max_retries
        self.retries = 0
        self.recovered = 0
        self.epoch = 0
        self.exhausted = False
        self._granted: set[str] = set()
        self._awaiting_recovery = False
        self._prefix = f"{instance.name}/"
        self._tracer = instance.scheduler.tracer
        self._tracer.add_listener(self._on_event)

    # ------------------------------------------------------------------
    # Trace listener
    # ------------------------------------------------------------------

    def _mine(self, event: TraceEvent) -> str | None:
        performance = event.get("performance")
        if isinstance(performance, str) and \
                performance.startswith(self._prefix):
            return performance
        return None

    def _on_event(self, event: TraceEvent) -> None:
        if event.kind is EventKind.PERFORMANCE_ABORT:
            performance = self._mine(event)
            if performance is None or self.exhausted:
                return
            if performance in self._granted:
                return  # at-most-once: this abort was already billed
            scheduler = self.instance.scheduler
            if self.retries >= self.max_retries:
                self.exhausted = True
                scheduler.tracer.emit(
                    scheduler.now, EventKind.RECOVERY, None,
                    action="retry_exhausted", performance=performance,
                    retries=self.retries)
                return
            self._granted.add(performance)
            self.retries += 1
            self.epoch += 1
            self._awaiting_recovery = True
            scheduler.tracer.emit(
                scheduler.now, EventKind.RECOVERY, None,
                action="performance_retry", performance=performance,
                epoch=self.epoch)
        elif event.kind is EventKind.PERFORMANCE_END:
            performance = self._mine(event)
            if performance is None or not self._awaiting_recovery:
                return
            self._awaiting_recovery = False
            self.recovered += 1
            scheduler = self.instance.scheduler
            scheduler.tracer.emit(
                scheduler.now, EventKind.RECOVERY, None,
                action="performance_recovered", performance=performance,
                epoch=self.epoch)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def detach(self) -> None:
        """Stop listening (idempotent)."""
        self._tracer.remove_listener(self._on_event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PerformanceRetry {self.instance.name} "
                f"retries={self.retries}/{self.max_retries} "
                f"recovered={self.recovered} exhausted={self.exhausted}>")
