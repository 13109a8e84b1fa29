"""Effect objects yielded by processes to the scheduler.

Processes in the runtime kernel are Python generator functions.  Instead of
performing blocking operations directly, a process *yields* an effect object
describing the operation; the scheduler interprets the effect and resumes the
generator with the operation's result.  This design keeps the whole system
single-threaded and deterministic: the only sources of nondeterminism are the
scheduler's seeded random choices.

The communication effects implement a synchronous rendezvous in the style of
CSP: a :class:`Send` blocks until a matching :class:`Receive` commits, and
vice versa.  Addresses are arbitrary hashable values; a process may hold
several *aliases* at once (its own name plus any role addresses it currently
plays), which is how script roles communicate without knowing which concrete
process enrolled.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Hashable

Address = Hashable
Tag = Hashable


class Effect:
    """Base class for everything a process may yield to the scheduler."""

    __slots__ = ()


@dataclasses.dataclass(frozen=True, slots=True)
class Send(Effect):
    """Offer a synchronous send of ``value`` to the process owning ``to``.

    ``to`` is an alias (a process name or a role address).  The optional
    ``tag`` discriminates logically distinct channels between the same pair
    of partners; both sides of a rendezvous must use equal tags.
    ``as_alias`` is the identity presented to the receiver; role contexts
    set it to the sending role's address so partners observe roles, not the
    concrete processes enrolled in them.
    """

    to: Address
    value: Any
    tag: Tag = None
    as_alias: Address | None = None


@dataclasses.dataclass(frozen=True, slots=True)
class Receive(Effect):
    """Offer a synchronous receive.

    ``frm`` names the alias of the expected sender; ``None`` accepts a
    message from any partner (the partners-unnamed convention, as in Ada's
    ``accept`` or the Francez extension of CSP).  The effect's result is the
    received value, or a :class:`ReceivedMessage` when ``with_sender`` is
    true.
    """

    frm: Address | None = None
    tag: Tag = None
    with_sender: bool = False


@dataclasses.dataclass(frozen=True, slots=True)
class ReceivedMessage:
    """Result of a ``Receive(..., with_sender=True)``: value plus sender alias."""

    value: Any
    sender: Address


@dataclasses.dataclass(frozen=True, slots=True)
class Select(Effect):
    """Block until one of several communication branches commits.

    ``branches`` is a sequence of :class:`Send` / :class:`Receive` effects
    whose boolean guards have already been evaluated by the caller (only
    enabled branches are listed).  The result is a :class:`SelectResult`
    naming the branch that committed.

    With ``immediate=True`` the select never blocks: if no branch can commit
    right now the result has ``index == ELSE_BRANCH`` (this models CSP's
    "else" / Ada's ``else`` part of a selective wait).

    ``timeout`` adds a timeout arm: if no branch commits within ``timeout``
    units of virtual time the offers are withdrawn and the result has
    ``index == TIMED_OUT_BRANCH`` (Ada's ``delay`` alternative).
    """

    branches: tuple[Send | Receive, ...]
    immediate: bool = False
    timeout: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(self.branches))
        if self.timeout is not None:
            if self.immediate:
                raise ValueError("immediate select cannot also have a timeout")
            if self.timeout < 0:
                raise ValueError(f"negative select timeout: {self.timeout}")


#: Index reported by a Select whose ``immediate`` escape was taken.
ELSE_BRANCH = -1

#: Index reported by a Select whose timeout arm fired.
TIMED_OUT_BRANCH = -3


@dataclasses.dataclass(frozen=True, slots=True)
class SelectResult:
    """Outcome of a :class:`Select`.

    ``index`` is the position of the branch that committed (or
    :data:`ELSE_BRANCH`); ``value`` is the received value for a receive
    branch and ``None`` for a send branch; ``sender`` is the alias the
    partner used, for receive branches.
    """

    index: int
    value: Any = None
    sender: Address | None = None


@dataclasses.dataclass(frozen=True, slots=True)
class Delay(Effect):
    """Suspend the process for ``duration`` units of virtual time."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative delay: {self.duration}")


@dataclasses.dataclass(frozen=True, slots=True)
class WaitUntil(Effect):
    """Block until ``predicate()`` returns true.

    The predicate is re-evaluated whenever the scheduler's state may have
    changed (a process stepped, completed, or a rendezvous committed).  It
    must be side-effect free.  A predicate that is exactly a
    :class:`Latch` is not polled: the process is parked on the latch and
    woken by its :meth:`Latch.set`, at the point polling would have woken
    it.
    """

    predicate: Callable[[], bool]
    description: str = "condition"


class Latch:
    """A one-shot condition: false until :meth:`set`, then true for good.

    Calling a latch returns whether it is set, so it works anywhere a
    ``WaitUntil`` predicate does.  The scheduler parks a process whose
    predicate is exactly a latch instead of polling it; ``set()`` queues
    the parked processes, and the next settle wakes them in park order,
    interleaved with the polled waiters it wakes — the order a poll of
    every waiter would give.  One latch parks processes of one scheduler.
    ``is_set`` is for reading; only :meth:`set` may change it.
    """

    __slots__ = ("is_set", "_parked", "_fired")

    def __init__(self) -> None:
        self.is_set = False
        #: Parked waiters by process name, in park order (scheduler-owned).
        self._parked: dict[Hashable, Any] = {}
        #: The parking scheduler's queue of set latches with waiters.
        self._fired: list["Latch"] | None = None

    def __call__(self) -> bool:
        return self.is_set

    def set(self) -> None:
        """Set the latch (idempotent) and queue its parked waiters."""
        if self.is_set:
            return
        self.is_set = True
        if self._parked:
            self._fired.append(self)

    def __repr__(self) -> str:
        return f"<Latch {'set' if self.is_set else 'unset'}>"


class _TimedOut:
    """Singleton result of a timed wait that expired."""

    _instance: "_TimedOut | None" = None

    def __new__(cls) -> "_TimedOut":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TIMED_OUT"

    def __bool__(self) -> bool:
        return False


#: Distinguished (falsy) value returned by a timed wait that expired: a
#: role receive whose ``Select`` timeout arm fired, or an Ada timed entry
#: call left unaccepted.
TIMED_OUT = _TimedOut()


@dataclasses.dataclass(frozen=True, slots=True)
class GetTime(Effect):
    """Return the current virtual time."""


@dataclasses.dataclass(frozen=True, slots=True)
class GetName(Effect):
    """Return the name of the executing process."""


@dataclasses.dataclass(frozen=True, slots=True)
class Spawn(Effect):
    """Create a new process running ``body`` and return its name.

    The paper's model is a fixed network, so user code rarely spawns;
    hosts create their processes with :meth:`Scheduler.spawn` instead.
    """

    name: Address
    body: Any  # a generator (already instantiated)


@dataclasses.dataclass(frozen=True, slots=True)
class AddAlias(Effect):
    """Register ``alias`` as an additional address of the running process."""

    alias: Address


@dataclasses.dataclass(frozen=True, slots=True)
class DropAlias(Effect):
    """Remove ``alias`` from the running process's addresses."""

    alias: Address


@dataclasses.dataclass(frozen=True, slots=True)
class QueryProcesses(Effect):
    """Return {name: finished?} for the given process names.

    Unknown names report as finished (a process that never existed can
    never communicate).  This powers CSP's distributed termination
    convention: a repetitive command may terminate when all its partners
    have.
    """

    names: tuple[Address, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))


@dataclasses.dataclass(frozen=True, slots=True)
class Trace(Effect):
    """Emit a user-level trace event visible to the verification layer."""

    kind: str
    details: dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True, slots=True)
class Choice(Effect):
    """Ask the scheduler's seeded RNG to choose one of ``options``.

    Using this effect instead of ``random`` keeps process code reproducible
    under a fixed scheduler seed.
    """

    options: tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", tuple(self.options))
        if not self.options:
            raise ValueError("Choice requires at least one option")
