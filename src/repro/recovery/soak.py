"""The ``recover`` scenario: liveness under restarts and retries.

The plain chaos entries (:mod:`repro.faults.soak`) prove *safety* under
faults: whatever happens, no residue, and aborted runs abort for the right
reason.  This entry proves the complementary *liveness under recovery*
property: with a :class:`~repro.recovery.policy.RestartPolicy` respawning
crashed participants and a :class:`~repro.recovery.retry.PerformanceRetry`
budgeting re-runs, a workload that asks for K completed performances gets
them **despite** a crash plan that kills the critical sender — a plan
which, unsupervised, would permanently abort the run.

Budgets are sized from the plan (restart cap above the sender crash
count, retry budget equal to it), so recovery suffices and the liveness
assertion is unconditional: a shortfall, a quarantine, an exhausted retry
budget or an abort without a retry raises
:class:`~repro.errors.ChaosInvariantError`, like every other chaos
invariant.  Escalation stays wired into the workload's stop predicate as
a backstop; a given plan that crashes one recipient more often than the
cap allows reaches it.

Its soak is ``soak("recover")``, which sums each run's liveness counters
(completed performances, restarts, retries, recoveries).  Everything
stays deterministic: the plan, the backoff jitter, and every recovery
decision derive from the run's seed, so ``verify_determinism("recover")``
can demand byte-identical formatted traces — RECOVERY events included.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Hashable

from ..core import SealPolicy
from ..errors import ChaosInvariantError, PerformanceAborted
from ..faults.plan import CRASH, FaultPlan
from ..faults.soak import PAYLOAD, make_chaos_broadcast
from ..net import star
from ..scenarios import Run, finish, run_checked, world
from .policy import BackoffSchedule, RestartPolicy
from .retry import PerformanceRetry

Body = Generator[Any, Any, Any]

#: Completed performances a run asks for, the sender's seal window and
#: the fault horizon.
RECOVER_ROUNDS = 3
RECOVER_WINDOW = 2.0
RECOVER_HORIZON = 40.0


def recover_plan(rng: random.Random, n: int = 3) -> FaultPlan:
    """The seed-derived plan of :func:`run_recover_broadcast`.

    The sender dies at least once — each crash window is offset past the
    previous recovery, so every crash can land in a fresh performance.
    """
    enroll_window, horizon = RECOVER_WINDOW, RECOVER_HORIZON
    plan = FaultPlan()
    sender_crashes = 1 + (rng.random() < 0.4)
    for c in range(sender_crashes):
        lo = enroll_window + 0.5 + c * 3 * enroll_window
        plan.crash(round(rng.uniform(lo, lo + 2 * enroll_window), 3), "S")
    for i in range(1, n + 1):
        if rng.random() < 0.4:
            plan.crash(round(rng.uniform(0.2, horizon / 2), 3), ("R", i))
    if rng.random() < 0.4:
        leaf = rng.randint(1, n)
        start = round(rng.uniform(0.2, enroll_window + 2.0), 3)
        plan.partition(start, "hub", ("leaf", leaf),
                       heal_at=round(start + rng.uniform(0.5, 3.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.slow(start, round(rng.uniform(2.0, 4.0), 2),
                  until=round(start + rng.uniform(1.0, 4.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.drop(start, rng.randint(1, 3),
                  until=round(start + rng.uniform(1.0, 4.0), 3))
    return plan


def _fail(seed: int, message: str) -> None:
    raise ChaosInvariantError(f"seed {seed}: {message}",
                              category="liveness")


def run_recover_broadcast(seed: int, *, n: int = 3,
                          plan: FaultPlan | None = None,
                          journal: Any = None) -> Run:
    """:data:`RECOVER_ROUNDS` rounds of the chaos broadcast, recovered
    through a crash plan.

    The sender (critical) and every recipient loop re-enrolling until
    :data:`RECOVER_ROUNDS` performances have completed; a seed-derived plan
    crashes the sender at least once (plus recipients at random) and a
    :class:`RestartPolicy` brings every victim back after backoff.  The
    run must deliver the asked-for rounds, leave zero kernel residue,
    and — when the plan managed to abort a sealed performance — show the
    retry accounting in the trace; otherwise it raises
    :class:`~repro.errors.ChaosInvariantError` before finishing, so its
    outcome is always ``"recovered"``.  The run's ``counters`` are
    ``completed``, ``restarts``, ``retries`` and ``recovered``.
    ``journal`` is the run's hook (see :mod:`repro.scenarios`); with any
    hook attached the policy calls ``journal.barrier()`` before every
    recovery decision acts — so a recorder has each decision on disk
    first.  Barriers do not touch the run, so the trace is the same
    either way.
    """
    placement: dict[Hashable, Any] = {"S": "hub"}
    placement.update({("R", i): ("leaf", i) for i in range(1, n + 1)})
    scheduler, transport = world(seed, star(n), placement, journal)

    script = make_chaos_broadcast(n, RECOVER_WINDOW)
    instance = script.instance(scheduler, name="recover_broadcast",
                               seal_policy=SealPolicy.MANUAL)
    supervisor = instance.supervise()

    # The budgets are sized from the plan's sender crashes so they
    # provably cover it (liveness must not depend on luck).
    if plan is None:
        plan = recover_plan(random.Random(seed), n)
    sender_crashes = sum(1 for event in plan
                         if event.kind == CRASH and event.target == "S")

    retry = PerformanceRetry(instance, max_retries=sender_crashes)
    quarantined: set[Hashable] = set()

    def escalate(name: Hashable) -> None:
        quarantined.add(name)
        # A quarantined name never comes back; a performance waiting on
        # its role would deadlock the run, so cut it loose — survivors
        # unwind via PerformanceAborted and see done() on re-check.
        supervisor.abort_current()

    def completed_count() -> int:
        return sum(1 for p in instance.performances
                   if p.ended and not p.aborted)

    def done() -> bool:
        return (completed_count() >= RECOVER_ROUNDS or retry.exhausted
                or bool(quarantined))

    def unresolved() -> bool:
        # A performance that formed (recipients re-enroll the instant
        # their role body ends, racing the round-count check) must still
        # be driven to completion: its recipients are already past their
        # withdraw guard, waiting for a sender.
        current = instance.current
        return current is not None and not current.ended

    def sender_alive() -> bool:
        return not done() or unresolved()

    def sender_body() -> Body:
        sent = 0
        while sender_alive():
            try:
                yield from instance.enroll("sender", data=PAYLOAD)
            except PerformanceAborted:
                continue
            sent += 1
        return sent

    def recipient_body(i: int) -> Body:
        delivered = 0
        while not done():
            try:
                out = yield from instance.enroll(("recipient", i),
                                                 withdraw_when=done)
            except PerformanceAborted:
                continue
            if out is not None:
                delivered += 1
        return delivered

    bodies: dict[Hashable, Any] = {"S": sender_body}
    bodies.update({("R", i): (lambda i=i: recipient_body(i))
                   for i in range(1, n + 1)})
    # Cap sized above the sender's crash count, which generated plans
    # never exceed for any name: the soak proves liveness, so quarantine
    # is unreachable there (the cap itself is proven by
    # tests/recovery/test_policy.py).
    policy = RestartPolicy(
        scheduler, bodies,
        backoff=BackoffSchedule(base=0.25, factor=2.0, cap=2.0, jitter=0.1),
        max_restarts=sender_crashes + 1,
        window=10 * RECOVER_HORIZON, seed=seed,
        only_while=sender_alive, on_escalate=escalate, journal=journal)

    plan.install(scheduler, transport=transport)
    scheduler.spawn("S", sender_body())
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), recipient_body(i))

    result = run_checked(scheduler, seed, instance)
    completed = completed_count()
    if quarantined:
        _fail(seed, f"intensity cap escalated "
                    f"{sorted(quarantined, key=repr)!r}"
                    f" despite a covering budget")
    if completed < RECOVER_ROUNDS:
        _fail(seed, f"only {completed}/{RECOVER_ROUNDS} performances "
                    f"completed under recovery")
    if retry.exhausted:
        _fail(seed, "retry budget exhausted despite covering the "
                    "crash plan")
    if supervisor.aborts and not retry.retries:
        _fail(seed, "performance aborted but no retry was granted")
    return finish(
        seed, result, journal, "recovered",
        f"recovery run recovered: {completed} performance(s) completed of "
        f"{RECOVER_ROUNDS} asked for, {policy.restarts} restart(s), "
        f"t={result.time:g}",
        performances=instance.performance_count,
        crashes=supervisor.crashes, aborts=supervisor.aborts,
        faults=plan.describe(),
        counters={"completed": completed, "restarts": policy.restarts,
                  "retries": retry.retries, "recovered": retry.recovered})
