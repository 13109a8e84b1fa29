"""Trace invariants: the paper's stated guarantees, checked mechanically.

Each checker inspects a recorded trace and raises
:class:`~repro.errors.VerificationError` with a diagnostic on violation.
The properties are exactly those the paper asserts in Section II:

* **successive activations** (Figure 1): all roles of performance *k*
  terminate before performance *k+1* starts;
* **performance well-formedness**: a role starts after the performance
  starts and after its enrollment is accepted, ends exactly once, and the
  performance ends exactly once, only after every filled role ended;
* **broadcast delivery**: within one performance, every recipient role
  receives the transmitted value (Figures 3, 4, 6, 8, 12);
* **communication scoping**: role-addressed rendezvous never cross
  performance boundaries;
* **critical sets**: under delayed initiation, a performance starts only
  once one of its script's critical role sets is filled.

The properties hold under supervision's faults too (DESIGN.md §7): a
``role_crash`` closes its role, so refilling it takes a fresh accepted
enrollment, and a ``performance_abort`` ends its performance and closes
the roles its interrupted survivors never end.

Every checker takes a live tracer or a recorded event sequence, such as
a run's ``events``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from ..core.performance import RoleAddress
from ..errors import VerificationError
from ..runtime.tracing import EventKind, TraceEvent
from .metrics import TraceSource, _events



def _script_events(source: TraceSource,
                   instance: str | None) -> list[TraceEvent]:
    wanted = {EventKind.ENROLL_REQUEST, EventKind.ENROLL_ACCEPT,
              EventKind.PERFORMANCE_START, EventKind.ROLE_START,
              EventKind.ROLE_END, EventKind.ROLE_CRASH,
              EventKind.PERFORMANCE_END, EventKind.PERFORMANCE_ABORT}
    selected = [e for e in _events(source) if e.kind in wanted]
    if instance is not None:
        selected = [e for e in selected if e.get("instance") == instance]
    return selected


def performances_in(events: TraceSource, instance: str | None = None
                    ) -> list[str]:
    """Performance ids appearing in the trace, in start order."""
    return [e.get("performance")
            for e in _script_events(events, instance)
            if e.kind is EventKind.PERFORMANCE_START]


def check_successive_activations(tracer: TraceSource,
                                 instance: str | None = None) -> int:
    """All roles of performance *k* end before performance *k+1* starts.

    A role's crash ends it, and an abort ends every role of its
    performance.  Returns the number of performances checked.
    """
    events = _script_events(tracer, instance)
    open_roles: dict[str, set[Any]] = defaultdict(set)
    current: str | None = None
    checked = 0
    for event in events:
        performance = event.get("performance")
        if event.kind is EventKind.PERFORMANCE_START:
            if current is not None and open_roles[current]:
                raise VerificationError(
                    "successive-activations",
                    f"performance {performance} started while roles "
                    f"{sorted(map(repr, open_roles[current]))} of "
                    f"{current} were still active")
            current = performance
            checked += 1
        elif event.kind is EventKind.ROLE_START:
            open_roles[performance].add(event.get("role"))
        elif event.kind in (EventKind.ROLE_END, EventKind.ROLE_CRASH):
            open_roles[performance].discard(event.get("role"))
        elif event.kind is EventKind.PERFORMANCE_ABORT:
            open_roles[performance].clear()
    return checked


def check_performances_well_formed(tracer: TraceSource,
                                   instance: str | None = None) -> int:
    """Role lifecycles nest correctly within their performance.

    A crashed role is closed: a refill must be accepted afresh before it
    starts again.  An aborted performance ends with its survivors still
    open, since the abort interrupts them.
    """
    events = _script_events(tracer, instance)
    started: set[str] = set()
    ended: set[str] = set()
    accepted: set[tuple[str, Any]] = set()
    role_started: set[tuple[str, Any]] = set()
    role_ended: set[tuple[str, Any]] = set()

    for event in events:
        performance = event.get("performance")
        key = (performance, event.get("role"))
        if event.kind is EventKind.PERFORMANCE_START:
            if performance in started:
                raise VerificationError(
                    "well-formed", f"{performance} started twice")
            started.add(performance)
        elif event.kind is EventKind.ENROLL_ACCEPT:
            accepted.add(key)
        elif event.kind is EventKind.ROLE_START:
            if performance not in started:
                raise VerificationError(
                    "well-formed",
                    f"role {event.get('role')!r} started before "
                    f"{performance} started")
            if key not in accepted:
                raise VerificationError(
                    "well-formed",
                    f"role {event.get('role')!r} started without an "
                    f"accepted enrollment in {performance}")
            if key in role_started:
                raise VerificationError(
                    "well-formed",
                    f"role {event.get('role')!r} started twice in "
                    f"{performance}")
            role_started.add(key)
        elif event.kind is EventKind.ROLE_END:
            if key not in role_started:
                raise VerificationError(
                    "well-formed",
                    f"role {event.get('role')!r} ended without starting "
                    f"in {performance}")
            role_ended.add(key)
        elif event.kind is EventKind.ROLE_CRASH:
            accepted.discard(key)
            role_started.discard(key)
        elif event.kind in (EventKind.PERFORMANCE_END,
                            EventKind.PERFORMANCE_ABORT):
            if performance in ended:
                raise VerificationError(
                    "well-formed", f"{performance} ended twice")
            ended.add(performance)
            open_roles = {k for k in role_started - role_ended
                          if k[0] == performance}
            if open_roles and event.kind is EventKind.PERFORMANCE_END:
                raise VerificationError(
                    "well-formed",
                    f"{performance} ended with roles still active: "
                    f"{sorted(repr(r) for _, r in open_roles)}")
    return len(started)


def _comm_events(source: TraceSource) -> list[TraceEvent]:
    return [e for e in _events(source) if e.kind is EventKind.COMM]


def comm_events_of_performance(tracer: TraceSource,
                               performance_id: str) -> list[TraceEvent]:
    """COMM events whose rendezvous is addressed within ``performance_id``."""
    selected = []
    for event in _comm_events(tracer):
        to = event.get("to")
        if isinstance(to, RoleAddress) and to.performance_id == performance_id:
            selected.append(event)
    return selected


def check_broadcast_delivery(tracer: TraceSource, performance_id: str,
                             value: Any, recipient_family: str = "recipient",
                             count: int | None = None) -> int:
    """Every recipient of the performance received exactly ``value``.

    Returns the number of deliveries verified.
    """
    delivered: dict[Any, Any] = {}
    for event in comm_events_of_performance(tracer, performance_id):
        to = event.get("to")
        role = to.role_id
        if isinstance(role, tuple) and role[0] == recipient_family:
            delivered[role] = event.get("value")
    if count is not None and len(delivered) != count:
        raise VerificationError(
            "broadcast-delivery",
            f"{performance_id}: expected {count} deliveries, "
            f"saw {len(delivered)}")
    wrong = {role: got for role, got in delivered.items() if got != value}
    if wrong:
        raise VerificationError(
            "broadcast-delivery",
            f"{performance_id}: wrong values delivered: {wrong!r}")
    if not delivered:
        raise VerificationError(
            "broadcast-delivery",
            f"{performance_id}: no deliveries to family "
            f"{recipient_family!r} observed")
    return len(delivered)


def check_no_cross_performance_comm(tracer: TraceSource) -> int:
    """Role-addressed rendezvous stay within one performance.

    The sender's presented alias and the target must agree on the
    performance id.  Returns the number of role-addressed COMM events.
    """
    checked = 0
    for event in _comm_events(tracer):
        to = event.get("to")
        sender_alias = event.get("sender_alias")
        if not isinstance(to, RoleAddress):
            continue
        checked += 1
        if isinstance(sender_alias, RoleAddress) and \
                sender_alias.performance_id != to.performance_id:
            raise VerificationError(
                "performance-scoping",
                f"rendezvous crossed performances: {sender_alias!r} -> "
                f"{to!r}")
    return checked


def check_critical_sets(tracer: TraceSource,
                        instance: str | None = None) -> int:
    """Under delayed initiation, every performance starts on a critical set.

    For each instance whose ``instance_created`` says ``delayed``, every
    ``performance_start`` binding holds ``repr(item)`` for every concrete
    item of at least one critical set listed there.  An open family's name
    is skipped, since ``min_count`` is not in the trace: a string item
    under which the instance never accepted an enrollment is taken as one
    (open members are accepted as ``(name, index)``).  Empty bindings, as
    under immediate initiation, check nothing.  Returns the number of
    performance starts checked.
    """
    events = _events(tracer)
    critical_sets: dict[str, list[list[Any]]] = {}
    accepted_names: dict[str, set[str]] = defaultdict(set)
    for event in events:
        name = event.get("instance")
        if instance is not None and name != instance:
            continue
        if (event.kind is EventKind.INSTANCE_CREATED
                and event.get("initiation") == "delayed"):
            critical_sets[name] = event.get("critical_sets")
        elif (event.kind is EventKind.ENROLL_ACCEPT
              and isinstance(event.get("role"), str)):
            accepted_names[name].add(event.get("role"))
    checked = 0
    for event in events:
        if event.kind is not EventKind.PERFORMANCE_START:
            continue
        sets = critical_sets.get(event.get("instance"))
        binding = event.get("binding")
        if not (sets and binding):
            continue
        names = accepted_names[event.get("instance")]
        if not any(all(repr(item) in binding for item in critical
                       if not isinstance(item, str) or item in names)
                   for critical in sets):
            raise VerificationError(
                "critical-sets",
                f"{event.get('performance')} started with roles "
                f"{sorted(binding)}, covering none of the critical sets "
                f"{sets!r}")
        checked += 1
    return checked


def check_all(tracer: TraceSource,
              instance: str | None = None) -> dict[str, int]:
    """Run every generic checker; return {property: items checked}."""
    events = _events(tracer)
    return {
        "successive-activations":
            check_successive_activations(events, instance),
        "well-formed": check_performances_well_formed(events, instance),
        "performance-scoping": check_no_cross_performance_comm(events),
        "critical-sets": check_critical_sets(events, instance),
    }
