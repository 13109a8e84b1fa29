"""Supervision: what a script instance does when a participant crashes.

The paper's graceful-degradation contract — a performance may begin with
only a *critical* role set filled, and communication with an absent role
yields a distinguished value while ``r.terminated`` reports true — extends
naturally to mid-performance crashes:

* **Non-critical crash.**  If the surviving participants still cover a
  critical role set, the crashed role is demoted to *absent*: it leaves the
  participant set, partners that communicate with it get the unfilled-role
  treatment (:data:`~repro.core.policies.UNFILLED` or
  :class:`~repro.errors.UnfilledRoleError`), and ``r.terminated`` is true.
  Partners already blocked in a rendezvous whose only possible partners
  died are unwound with :class:`~repro.errors.CrashedPartnerSignal`, which
  :class:`~repro.core.RoleContext` translates into the same policy.

* **Critical crash.**  If no critical role set remains covered, the
  performance cannot meaningfully complete: it is *aborted*.  Every
  surviving participant whose role body has not finished is released with
  a structured :class:`~repro.errors.PerformanceAborted` thrown at its
  current yield point, its role alias dropped and pending offers
  withdrawn, so no residue remains on the board, in the alias registry, or
  in the waiter set.  Participants whose bodies already finished complete
  normally (the aborted performance counts as ended for delayed
  termination).

* **Crash before enrollment.**  Pooled requests of the dead process are
  removed so they can never be drafted into a future performance.

A crash *before the performance seals* simply vacates the role — the
participant set is not final yet, so another process may still fill it;
no abort decision is taken.

A :class:`Supervisor` subscribes to the scheduler's kill notifications;
create one per instance with :meth:`ScriptInstance.supervise
<repro.core.instance.ScriptInstance.supervise>`.
"""

from __future__ import annotations

from typing import Hashable, TYPE_CHECKING

from ..errors import CrashedPartnerSignal, PerformanceAborted
from ..runtime import EventKind
from ..runtime.process import Process
from .performance import Performance

if TYPE_CHECKING:  # pragma: no cover
    from .instance import ScriptInstance

class Supervisor:
    """Applies crash policies to one script instance.

    Criticality is inferred from the script's critical role sets: a crash
    aborts exactly when the surviving participants no longer cover any
    critical set.  ``aborts`` counts aborted performances and is bumped
    before survivors are released, so harnesses can read it (say, in a
    ``withdraw_when`` predicate) to let pooled survivors withdraw instead
    of waiting for a performance that can never form.
    """

    def __init__(self, instance: "ScriptInstance"):
        self.instance = instance
        self.crashes = 0
        self.aborts = 0
        instance.scheduler.on_kill(self._process_crashed)

    # ------------------------------------------------------------------
    # Kill notification
    # ------------------------------------------------------------------

    def _process_crashed(self, process: Process) -> None:
        instance = self.instance
        name = process.name
        # Crash before enrollment: drop the dead process's pooled requests.
        for request in [r for r in instance.pool if r.process == name]:
            instance._withdraw(request)
        performance = instance.current
        if performance is None or performance.ended:
            return
        crashed_roles = [
            role for role, request in performance.filled.items()
            if request.process == name and role not in performance.done]
        if not crashed_roles:
            return
        self.crashes += 1
        for role in crashed_roles:
            performance.vacate(role)
            instance._emit(EventKind.ROLE_CRASH, name, role=role,
                           performance=performance.id,
                           sealed=performance.sealed)
        if not performance.sealed:
            # Participant set not final: the vacated role may be refilled
            # by a pooled or future request; no abort decision yet.
            instance._progress()
            return
        if performance.covered:
            self._absent_fallback(performance)
        else:
            self._abort(performance)

    # ------------------------------------------------------------------
    # Non-critical: demote the crashed role to absence
    # ------------------------------------------------------------------

    def _absent_fallback(self, performance: Performance) -> None:
        scheduler = self.instance.scheduler
        dead = frozenset(performance.address(role)
                         for role in performance.crashed)
        # Unwind partners whose every pending offer targets a dead address;
        # RoleContext translates the signal into the unfilled-role policy.
        # (Offers with at least one live branch are left in place: those
        # branches may still commit.)
        for blocked_name in scheduler.blocked_only_on(dead):
            scheduler.interrupt(blocked_name, CrashedPartnerSignal(dead))
        # The performance may now be able to end (the crashed role no
        # longer counts toward all_filled_done), and waiters blocked on
        # "filled or absent" wake at the next settle.
        self.instance._check_ended(performance)

    # ------------------------------------------------------------------
    # Critical: abort the performance and release survivors
    # ------------------------------------------------------------------

    def abort_current(self) -> bool:
        """Abort the instance's forming/active performance, if any.

        For escalation paths *outside* the crash pipeline — e.g. a
        restart policy quarantining a critical role's process: the role
        can never be refilled, so a performance waiting on it would
        deadlock the run.  Returns True when a performance was aborted.
        """
        performance = self.instance.current
        if performance is None or performance.ended:
            return False
        self._abort(performance)
        return True

    def _abort(self, performance: Performance) -> None:
        instance = self.instance
        scheduler = instance.scheduler
        self.aborts += 1
        performance.aborted = True
        self._end_aborted(performance)
        crashed = tuple(sorted(performance.crashed, key=repr))
        instance._emit(EventKind.PERFORMANCE_ABORT, None,
                       performance=performance.id,
                       crashed=[repr(r) for r in crashed],
                       survivors=[repr(r) for r in
                                  sorted(performance.filled, key=repr)])
        for role, request in list(performance.filled.items()):
            if role in performance.done:
                continue  # body finished; delayed termination sees `ended`
            survivor: Hashable = request.process
            scheduler.drop_alias(survivor, performance.address(role))
            scheduler.interrupt(
                survivor, PerformanceAborted(performance.id, role, crashed))
        if instance.current is performance:
            # Deliberately no _progress() here: the next performance forms
            # at the next enrollment, giving pooled survivors a chance to
            # withdraw first (their withdraw_when predicates re-run at the
            # next settle, before any new submission).
            instance.current = None

    def _end_aborted(self, performance: Performance) -> None:
        """Mark the aborted performance ended, releasing its waiters.

        Residue the kernel cannot self-heal if skipped: a performance's
        end is the supervisor's job alone (the fault explorer's planted
        regression skips exactly this step).
        """
        performance.finished.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Supervisor of {self.instance.name} crashes={self.crashes} "
                f"aborts={self.aborts}>")
