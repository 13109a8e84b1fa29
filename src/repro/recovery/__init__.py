"""Deterministic recovery: restarts, backoff, and performance retry.

The paper's graceful-degradation story (critical role sets, absent roles,
distinguished values from unfilled roles) only ever *degrades*: a crash
demotes a role to absence or aborts the performance, and that is the end.
This package supplies the other half of the fault-tolerance contract —
supervised recovery — so successive performances keep flowing through
faults:

:class:`~repro.recovery.policy.RestartPolicy`
    Respawns crashed process bodies after a virtual-time exponential
    backoff with seeded jitter, re-enrolling them into their vacated
    roles, with a sliding-window restart intensity cap that escalates
    crash loops to quarantine.

:class:`~repro.recovery.retry.PerformanceRetry`
    An at-most-once budget for re-running aborted performances, stamping
    a performance *epoch* into the trace so retried attempts are
    distinguishable and replayable.

:mod:`~repro.recovery.soak`
    The ``recover`` scenario (soaked by ``python -m repro chaos
    recover``), asserting *liveness under recovery*: K performances
    complete despite a crash plan that, unsupervised, would abort the run.

Everything is seed-deterministic: backoff jitter draws from a dedicated
seeded RNG, all delays are virtual time, and every recovery action is
emitted as :data:`~repro.runtime.EventKind.RECOVERY` — so the same seed
yields a byte-identical formatted trace, recovery included.
"""

from .policy import BackoffSchedule, RestartPolicy
from .retry import PerformanceRetry
from .soak import recover_plan, run_recover_broadcast

__all__ = [
    "BackoffSchedule",
    "RestartPolicy",
    "PerformanceRetry",
    "recover_plan",
    "run_recover_broadcast",
]
