"""The ``recover`` scenario: liveness under restarts and retries.

The plain chaos entries (:mod:`repro.faults.soak`) prove *safety* under
faults: whatever happens, no residue, and aborted runs abort for the right
reason.  This entry proves the complementary *liveness under recovery*
property: with a :class:`~repro.recovery.policy.RestartPolicy` respawning
crashed participants and a :class:`~repro.recovery.retry.PerformanceRetry`
budgeting re-runs, a workload that asks for K completed performances gets
them **despite** a crash plan that kills the critical sender — a plan
which, unsupervised, would permanently abort the run.

Its contract is the chaos broadcast's star contract with the sender
named as restarted, so every drawn plan crashes the sender at least
once.  Budgets are sized from the plan (restart cap above the largest
crash count of any one process, retry budget equal to the sender's), so
recovery suffices and the liveness assertion is unconditional: a
shortfall, an exhausted retry budget or an abort without a retry raises
:class:`~repro.errors.ChaosInvariantError`, like every other chaos
invariant.

Its soak is ``soak("recover")``, which sums each run's liveness counters
(completed performances, restarts, retries, recoveries).  Everything
stays deterministic: the plan, the backoff jitter, and every recovery
decision derive from the run's seed, so ``verify_determinism("recover")``
can demand byte-identical formatted traces — RECOVERY events included.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any, Generator, Hashable

from ..core import SealPolicy
from ..errors import ChaosInvariantError, PerformanceAborted
from ..faults.plan import CRASH, FaultPlan
from ..faults.soak import PAYLOAD, make_chaos_broadcast, star_contract
from ..net import star
from ..scenarios import FaultContract, Run, finish, run_checked, world
from .policy import BackoffSchedule, RestartPolicy
from .retry import PerformanceRetry

Body = Generator[Any, Any, Any]

#: Completed performances a run asks for, the sender's seal window and
#: the fault horizon.
RECOVER_ROUNDS = 3
RECOVER_WINDOW = 2.0
RECOVER_HORIZON = 40.0


def recover_contract(n: int = 3) -> FaultContract:
    """The chaos broadcast's star contract at :data:`RECOVER_WINDOW` and
    :data:`RECOVER_HORIZON`, with the sender restarted: every drawn plan
    crashes it at least once."""
    return dataclasses.replace(
        star_contract("S", "R", n, RECOVER_WINDOW, RECOVER_HORIZON,
                      heal_required=True),
        restarted=("S",))


def _fail(seed: int, message: str) -> None:
    raise ChaosInvariantError(f"seed {seed}: {message}",
                              category="liveness")


def run_recover_broadcast(seed: int, *, n: int = 3, plan: FaultPlan,
                          journal: Any = None) -> Run:
    """:data:`RECOVER_ROUNDS` rounds of the chaos broadcast, recovered
    through a crash plan.

    The sender (critical) and every recipient loop re-enrolling until
    :data:`RECOVER_ROUNDS` performances have completed; ``plan`` crashes
    them (a seed's drawn plan crashes the sender at least once) and a
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

    # The budgets are sized from the plan's crashes so they provably
    # cover it (liveness must not depend on luck): one retry per sender
    # crash, and a restart cap above any one process's crash count, so
    # the policy never quarantines (the cap itself is proven by
    # tests/recovery/test_policy.py).
    crashes = Counter(event.target for event in plan if event.kind == CRASH)
    retry = PerformanceRetry(instance, max_retries=crashes["S"])

    def completed_count() -> int:
        return sum(1 for p in instance.performances
                   if p.ended and not p.aborted)

    def done() -> bool:
        return completed_count() >= RECOVER_ROUNDS or retry.exhausted

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
    policy = RestartPolicy(
        scheduler, bodies,
        backoff=BackoffSchedule(base=0.25, factor=2.0, cap=2.0, jitter=0.1),
        max_restarts=max(crashes.values(), default=0) + 1,
        window=10 * RECOVER_HORIZON, seed=seed,
        only_while=sender_alive, journal=journal)

    plan.install(scheduler, transport=transport)
    scheduler.spawn("S", sender_body())
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), recipient_body(i))

    result = run_checked(scheduler, seed, instance)
    completed = completed_count()
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
