"""Script instances: the enrollment coordinator and the enroll operation.

A :class:`ScriptInstance` is one runtime instantiation of a
:class:`~repro.core.script.ScriptDef` on a scheduler.  It owns the pool of
pending enrollment requests and the sequence of performances, and it
enforces the paper's lifecycle rules:

* **initiation** — delayed (batch-match the pool for a consistent,
  critical-set-covering joint enrollment) or immediate (a performance
  begins at its first enrollment; later requests join incrementally);
* **sealing** — once a critical role set is covered, the participant set is
  final and still-unfilled roles become absent.  The instance builds its
  critical sets' table once (:class:`~repro.core.performance.CriticalTable`),
  and each performance counts, as roles fill and vacate, how many items
  of each set are still missing, so coverage is a count read;
* **termination** — immediate (each process freed as its role ends) or
  delayed (all freed together when the performance ends);
* **successive activations** — a new performance forms only after the
  current one has ended (Figures 1 and 2).

Design note: the coordinator is *passive* — plain data manipulated from
within the enrolling processes' own steps, not an extra process.  The paper
criticises central-administrator implementations for "generating additional
processes when executing a script"; the library's built-in coordinator adds
none (the Section IV supervisor translations, which do add processes, are
implemented separately in :mod:`repro.translation` as existence proofs).
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Hashable, Mapping

from ..errors import PerformanceError
from ..runtime import DropAlias, EventKind, GetName, Scheduler, WaitUntil
from .context import RoleContext
from .enrollment import EnrollmentRequest, normalize_partners
from .matching import consistent_extension, fill_order, solve
from .params import bind_formals, copy_back, validate_actuals
from .performance import CriticalTable, Performance
from .policies import Initiation, Termination
from .roles import RoleId, family_member
from .script import ScriptDef

Body = Generator[Any, Any, Any]

_instance_counter = itertools.count(1)


class SealPolicy:
    """When an immediate-initiation performance seals its participant set.

    ``EAGER`` (the default) seals the moment a critical role set is
    covered.  ``MANUAL`` leaves the performance open until
    :meth:`ScriptInstance.seal_current` is called (used by open-ended
    scripts whose membership is decided at run time, Section V).
    """

    EAGER = "eager"
    MANUAL = "manual"


class ScriptInstance:
    """One runtime instance of a script on a scheduler."""

    def __init__(self, script: ScriptDef, scheduler: Scheduler,
                 name: str | None = None,
                 seal_policy: str = SealPolicy.EAGER):
        self.script = script
        self.scheduler = scheduler
        self.name = name or f"{script.name}@{next(_instance_counter)}"
        self.unfilled = script.unfilled
        # A process may enroll in several roles of one performance only
        # under immediate initiation and immediate termination.
        self.allow_multi_role = (
            script.initiation is Initiation.IMMEDIATE
            and script.termination is Termination.IMMEDIATE)
        if seal_policy not in (SealPolicy.EAGER, SealPolicy.MANUAL):
            raise PerformanceError(f"unknown seal policy {seal_policy!r}")
        self.seal_policy = seal_policy
        # The script's shape, fixed at creation like the policies above:
        # every enrollment reads these tables instead of re-deriving them.
        self._closed_role_ids = script.closed_role_ids
        self._closed_families = script.closed_families
        open_families = script.open_families
        self._open_min = {name: family.min_count
                          for name, family in open_families.items()}
        self._open_max = {name: family.max_count
                          for name, family in open_families.items()}
        self._fill_order = fill_order(
            script._critical_sets_over(self._closed_role_ids))
        # Which sets each critical item counts toward: every performance
        # keeps its missing-item counts against this one table.
        self._critical_table = CriticalTable.build(self._fill_order,
                                                   self._open_min)
        #: Pending requests in arrival (``seq``) order: only
        #: :meth:`_submit` appends, and removals keep the order.
        self.pool: list[EnrollmentRequest] = []
        self.current: Performance | None = None
        self.performances: list[Performance] = []
        self._perf_seq = itertools.count(1)
        self._request_seq = itertools.count()
        # Announce the instance and its policies into the trace so the
        # observability layer can attribute spans without reaching back
        # into live objects (exports must be buildable from events alone).
        self._emit(EventKind.INSTANCE_CREATED, None,
                   script=script.name,
                   initiation=script.initiation.value,
                   termination=script.termination.value,
                   critical_sets=[list(s) for s in self._fill_order])

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def enroll(self, role: RoleId, partners: Mapping[RoleId, Any] | None = None,
               withdraw_when: Any = None, **actuals: Any) -> Body:
        """Enroll the running process in ``role`` (a generator operation).

        ``role`` names a singleton role, a concrete family member
        ``(family, index)``, or a family by bare name ("any free index").
        ``partners`` optionally names required partners per role id —
        a process name, or a list/set of acceptable names (disjunctive
        naming).  ``actuals`` supply the role's data parameters; pass a
        :class:`~repro.core.params.Ref` for ``OUT``/``IN_OUT`` results.

        ``withdraw_when`` optionally supplies a predicate; if it becomes
        true while the request is still pooled, the enrollment is cancelled
        and ``None`` is returned (a conditional-enrollment guard; the paper
        notes the immediate/delayed termination distinction "is crucial if
        script enrollment is to be allowed to act as a guard").

        The role body executes as a logical continuation of the enrolling
        process.  Returns the dict of final ``OUT``/``IN_OUT`` values.
        """
        declaration = self.script.declaration_for(role)
        validate_actuals(role, declaration.params, actuals)
        process = yield GetName()
        request = EnrollmentRequest(
            process=process, role_id=role, actuals=dict(actuals),
            partners=normalize_partners(partners))
        self._submit(request)
        if withdraw_when is None:
            yield WaitUntil(request.accepted,
                            f"enrollment in {self.name} as {role!r}")
        else:
            yield WaitUntil(lambda: request.assigned or withdraw_when(),
                            f"enrollment in {self.name} as {role!r} "
                            f"(withdrawable)")
            if not request.assigned:
                self._withdraw(request)
                return None
        performance = request.performance
        role_id = request.assigned_role
        bound = bind_formals(declaration.params, actuals)
        context = RoleContext(self, performance, role_id, process)
        self._emit(EventKind.ROLE_START, process, role=role_id,
                   performance=performance.id)
        yield from declaration.body(context, **bound)
        self._role_finished(performance, role_id, process)
        if self.script.termination is Termination.DELAYED:
            yield WaitUntil(performance.finished,
                            f"delayed termination of {performance.id}")
        yield DropAlias(performance.address(role_id))
        return copy_back(declaration.params, bound, actuals)

    def _withdraw(self, request: EnrollmentRequest) -> None:
        if request in self.pool:
            self.pool.remove(request)
        self._emit(EventKind.ENROLL_REQUEST, request.process,
                   role=request.role_id, seq=request.seq, withdrawn=True)

    def seal_current(self) -> None:
        """Seal the current performance's participant set (manual sealing)."""
        performance = self.current
        if performance is None:
            raise PerformanceError(f"{self.name}: no active performance to seal")
        if not performance.sealed:
            if not performance.covered:
                raise PerformanceError(
                    f"{self.name}: cannot seal {performance.id}: no critical "
                    f"role set is covered")
            self._seal(performance)
            self._check_ended(performance)

    def supervise(self) -> "Supervisor":
        """Attach a crash :class:`~repro.core.supervision.Supervisor`.

        After this, a mid-performance process crash no longer wedges the
        performance: a non-critical role falls back to the paper's
        unfilled-role semantics, a critical one aborts the performance
        with :class:`~repro.errors.PerformanceAborted`.  See
        :mod:`repro.core.supervision` for the policy details.
        """
        from .supervision import Supervisor
        return Supervisor(self)

    @property
    def performance_count(self) -> int:
        """Number of performances started so far."""
        return len(self.performances)

    @property
    def pending_count(self) -> int:
        """Number of enrollment requests still pooled."""
        return len(self.pool)

    # ------------------------------------------------------------------
    # Coordinator internals (plain synchronous state manipulation)
    # ------------------------------------------------------------------

    def _emit(self, kind: EventKind, process: Hashable, **details: Any) -> None:
        self.scheduler.tracer.emit(self.scheduler.now, kind, process,
                                   instance=self.name, **details)

    def _submit(self, request: EnrollmentRequest) -> None:
        # Renumber with the instance-local counter: the global default is
        # fine for FIFO order but would leak prior instances' request
        # counts into traces, breaking same-seed trace equality.
        request.seq = next(self._request_seq)
        self._emit(EventKind.ENROLL_REQUEST, request.process,
                   role=request.role_id,
                   partners={k: sorted(v, key=repr)
                             for k, v in request.partners.items()},
                   seq=request.seq)
        self.pool.append(request)
        self._progress()

    def _progress(self) -> None:
        """Drive the instance state machine to quiescence."""
        if self.current is not None and self.current.ended:
            self.current = None
        if self.current is None and self.pool:
            if self.script.initiation is Initiation.DELAYED:
                self._try_activate_delayed()
            else:
                self._start_immediate_performance()
        if (self.current is not None and not self.current.sealed
                and self.script.initiation is Initiation.IMMEDIATE):
            self._join_pending(self.current)
            if (self.seal_policy == SealPolicy.EAGER
                    and self.current.covered):
                self._seal(self.current)
                self._check_ended(self.current)

    # -- delayed initiation -------------------------------------------------

    def _try_activate_delayed(self) -> None:
        assignment = solve(self.pool, self._fill_order,
                           self._closed_families, self._open_min,
                           self._open_max, self._closed_role_ids)
        if assignment is None:
            return
        performance = Performance(self.name, next(self._perf_seq),
                                  self._critical_table)
        self.performances.append(performance)
        bindings: dict[RoleId, EnrollmentRequest] = dict(assignment.bindings)
        for family, members in assignment.family_members.items():
            for offset, request in enumerate(
                    sorted(members, key=lambda r: r.seq), start=1):
                bindings[family_member(family, offset)] = request
        for role_id, request in bindings.items():
            self._assign(performance, role_id, request)
        self._seal(performance)
        self._emit(EventKind.PERFORMANCE_START, None,
                   performance=performance.id,
                   binding={repr(r): p for r, p in
                            performance.binding().items()})

    # -- immediate initiation -------------------------------------------------

    def _start_immediate_performance(self) -> None:
        performance = Performance(self.name, next(self._perf_seq),
                                  self._critical_table)
        self.performances.append(performance)
        self.current = performance
        self._emit(EventKind.PERFORMANCE_START, None,
                   performance=performance.id, binding={})

    def _join_pending(self, performance: Performance) -> None:
        for request in list(self.pool):
            if performance.sealed:
                break
            role_id = self._resolve_target(performance, request)
            if role_id is None:
                continue
            if not consistent_extension(performance.filled,
                                        performance.namers.values(),
                                        role_id, request,
                                        self.allow_multi_role):
                continue
            self._assign(performance, role_id, request)
            if (self.seal_policy == SealPolicy.EAGER
                    and performance.covered):
                self._seal(performance)

    def _resolve_target(self, performance: Performance,
                        request: EnrollmentRequest) -> RoleId | None:
        """Concrete role id this request would fill now, or ``None``."""
        target = request.role_id
        if target in self._open_min:
            limit = self._open_max[target]
            if (limit is not None
                    and performance.family_count(target) >= limit):
                return None
            indices = performance.family_indices(target)
            return family_member(target, (indices[-1] + 1) if indices else 1)
        if target in self._closed_families:
            for index in self._closed_families[target]:
                candidate = family_member(target, index)
                if candidate not in performance.filled:
                    return candidate
            return None
        return target if target not in performance.filled else None

    # -- shared machinery -------------------------------------------------

    def _assign(self, performance: Performance, role_id: RoleId,
                request: EnrollmentRequest) -> None:
        request.accepted.set()
        request.performance = performance
        request.assigned_role = role_id
        performance.fill(role_id, request)
        self.pool.remove(request)
        if self.current is None:
            self.current = performance
        self.scheduler.add_alias(request.process, performance.address(role_id))
        self._emit(EventKind.ENROLL_ACCEPT, request.process, role=role_id,
                   performance=performance.id, seq=request.seq)

    def _seal(self, performance: Performance) -> None:
        performance.sealed = True

    def _role_finished(self, performance: Performance, role_id: RoleId,
                       process: Hashable) -> None:
        performance.finish(role_id)
        self._emit(EventKind.ROLE_END, process, role=role_id,
                   performance=performance.id)
        self._check_ended(performance)

    def _check_ended(self, performance: Performance) -> None:
        if (performance.sealed and not performance.ended
                and performance.all_filled_done):
            performance.finished.set()
            self._emit(EventKind.PERFORMANCE_END, None,
                       performance=performance.id,
                       filled=sorted(performance.filled, key=repr))
            self._progress()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ScriptInstance {self.name} performances="
                f"{len(self.performances)} pending={len(self.pool)}>")
