"""Ada-style tasking: tasks, entries, rendezvous, selective wait.

The paper's second host language is Ada (1983 tasking model).  The features
scripts rely on are reproduced here on top of the runtime kernel:

* **tasks** — named processes;
* **entries** — named (possibly indexed) rendezvous points of a task, each
  with a FIFO queue of pending calls ("repeated enrollments are serviced in
  order of arrival", as the paper notes for Ada fairness);
* **entry calls** — the caller blocks until the callee accepts the call
  *and finishes the accept body* (extended rendezvous), then receives the
  out-parameters;
* **accept statements** — the callee blocks until a call is queued;
* **selective wait** — wait on several open entries at once, with optional
  ``else``, ``delay`` and ``terminate`` alternatives.

Calling an entry of a completed task raises :class:`~repro.errors.AdaError`
(Ada's ``TASKING_ERROR``).  The ``terminate`` alternative fires when no call
is queued and every other task in the system has finished — a practical
approximation of Ada's termination rule for library-level server tasks.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from collections import deque
from typing import Any, Callable, Generator, Hashable, Sequence

from ..errors import AdaError
from ..runtime import TIMED_OUT, Choice, Scheduler, Trace, WaitUntil
from ..runtime.process import Process

EntryName = Hashable
Body = Generator[Any, Any, Any]


class _CallState(enum.Enum):
    QUEUED = "queued"
    IN_RENDEZVOUS = "in_rendezvous"
    DONE = "done"
    ABANDONED = "abandoned"  # callee terminated before accepting


@dataclasses.dataclass(slots=True)
class _CallRecord:
    seq: int
    caller: Hashable
    task: Hashable
    entry: EntryName
    args: tuple[Any, ...]
    state: _CallState = _CallState.QUEUED
    result: Any = None


class AcceptedCall:
    """An in-progress rendezvous on the accepting side.

    ``args`` are the caller's actual parameters.  The accept body must end
    with :meth:`complete` to release the caller (possibly with results) —
    :meth:`~TaskContext.accept_do` does this automatically.
    """

    def __init__(self, record: _CallRecord):
        self._record = record

    @property
    def args(self) -> tuple[Any, ...]:
        return self._record.args

    @property
    def caller(self) -> Hashable:
        return self._record.caller

    @property
    def entry(self) -> EntryName:
        return self._record.entry

    def complete(self, result: Any = None) -> None:
        """Finish the rendezvous, delivering ``result`` to the caller."""
        if self._record.state is not _CallState.IN_RENDEZVOUS:
            raise AdaError(f"rendezvous on {self._record.entry!r} already completed")
        self._record.result = result
        self._record.state = _CallState.DONE


#: Outcome marker for select alternatives that are not entry accepts.
ELSE_TAKEN = "else"
DELAY_TAKEN = "delay"
TERMINATE_TAKEN = "terminate"


@dataclasses.dataclass(frozen=True, slots=True)
class Alternative:
    """One ``when <cond> => accept <entry>`` arm of a selective wait."""

    entry: EntryName
    when: bool = True


def when(cond: bool, entry: EntryName) -> Alternative:
    """Convenience constructor mirroring Ada's ``when cond => accept e``."""
    return Alternative(entry, bool(cond))


class AdaSystem:
    """Registry of tasks and entry queues sharing one scheduler."""

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler
        self._queues: dict[tuple[Hashable, EntryName], deque[_CallRecord]] = {}
        self._tasks: dict[Hashable, Process] = {}
        self._seq = itertools.count()

    # -- construction ---------------------------------------------------

    def task(self, name: Hashable,
             factory: Callable[["TaskContext"], Body]) -> "TaskContext":
        """Declare and start a task; ``factory`` receives the task context."""
        context = TaskContext(self, name)
        process = self.scheduler.spawn(name, factory(context))
        self._tasks[name] = process
        return context

    # -- queue plumbing --------------------------------------------------

    def _queue(self, task: Hashable, entry: EntryName) -> deque[_CallRecord]:
        return self._queues.setdefault((task, entry), deque())

    def queue_length(self, task: Hashable, entry: EntryName) -> int:
        """Ada's ``entry'COUNT`` attribute."""
        return len(self._queue(task, entry))

    def terminated(self, task: Hashable) -> bool:
        """Ada's ``task'TERMINATED`` attribute."""
        process = self._tasks.get(task)
        return process is not None and process.finished

    def _task_finished(self, task: Hashable) -> bool:
        process = self._tasks.get(task)
        if process is None:
            # Not registered as a task (e.g., a plain process): consult the
            # scheduler so callers of unknown names fail fast.
            process = self.scheduler.processes.get(task)
            if process is None:
                raise AdaError(f"no task named {task!r}")
        return process.finished

    def _others_all_finished(self, me: Hashable) -> bool:
        return all(p.finished for name, p in self._tasks.items() if name != me)


class TaskContext:
    """Per-task handle providing entry calls, accepts, and selective wait.

    All methods are generator functions and must be invoked with
    ``yield from`` inside the task body.
    """

    def __init__(self, system: AdaSystem, name: Hashable):
        self.system = system
        self.name = name

    # -- calling side ----------------------------------------------------

    def call(self, task: Hashable, entry: EntryName, *args: Any,
             timeout: float | None = None) -> Generator[Any, Any, Any]:
        """Call ``task.entry(args)``; blocks until the accept body finishes.

        Returns whatever the accept body passed to
        :meth:`AcceptedCall.complete`.  Raises :class:`AdaError` if the
        callee has terminated (``TASKING_ERROR``).

        With ``timeout`` this is Ada's *timed entry call*: if the call is
        still queued (not yet accepted) when the deadline passes, it is
        cancelled and :data:`TIMED_OUT` is returned.  ``timeout=0`` is the
        *conditional entry call* (Ada's ``select ... else``).  A call that
        was already accepted always runs to completion, as in Ada.
        """
        if self.system._task_finished(task):
            raise AdaError(f"TASKING_ERROR: task {task!r} has terminated")
        record = _CallRecord(seq=next(self.system._seq), caller=self.name,
                             task=task, entry=entry, args=args)
        queue = self.system._queue(task, entry)
        queue.append(record)
        yield Trace("ada_call", {"task": task, "entry": entry,
                                 "caller": self.name, "seq": record.seq})

        scheduler = self.system.scheduler
        deadline = None
        timer = None
        if timeout is not None:
            deadline = scheduler.now + timeout
            if timeout > 0:
                timer = scheduler.schedule_at(deadline, lambda: None)

        def can_stop() -> bool:
            if record.state in (_CallState.DONE, _CallState.ABANDONED):
                return True
            if self.system._task_finished(task):
                return True
            return (deadline is not None
                    and scheduler.now >= deadline
                    and record.state is _CallState.QUEUED)

        yield WaitUntil(can_stop, f"rendezvous {task!r}.{entry!r}")
        if timer is not None:
            timer.cancel()

        if record.state is _CallState.QUEUED and deadline is not None \
                and scheduler.now >= deadline:
            queue.remove(record)
            return TIMED_OUT
        if record.state is _CallState.IN_RENDEZVOUS:
            # Accepted just before the deadline: the rendezvous completes.
            yield WaitUntil(
                lambda: record.state is _CallState.DONE
                or self.system._task_finished(task),
                f"rendezvous completion {task!r}.{entry!r}")
        if record.state is _CallState.DONE:
            return record.result
        # The callee died before completing the rendezvous.
        if record in queue:
            queue.remove(record)
        raise AdaError(f"TASKING_ERROR: task {task!r} terminated before "
                       f"completing entry {entry!r}")

    # -- accepting side ---------------------------------------------------

    def accept(self, entry: EntryName) -> Generator[Any, Any, AcceptedCall]:
        """Block until a call on ``entry`` is queued; dequeue the oldest."""
        queue = self.system._queue(self.name, entry)
        yield WaitUntil(lambda: bool(queue), f"accept {entry!r}")
        record = queue.popleft()
        record.state = _CallState.IN_RENDEZVOUS
        yield Trace("ada_accept", {"entry": entry, "caller": record.caller,
                                   "seq": record.seq})
        return AcceptedCall(record)

    def accept_do(self, entry: EntryName,
                  body: Callable[..., Any] | None = None
                  ) -> Generator[Any, Any, AcceptedCall]:
        """Accept a call and run ``body(*args)`` as the accept body.

        ``body`` may be a plain function or a generator function; its return
        value is delivered to the caller.  Without a body the rendezvous
        completes immediately (a pure synchronisation entry).
        """
        call = yield from self.accept(entry)
        result = None
        if body is not None:
            outcome = body(*call.args)
            if hasattr(outcome, "send") and hasattr(outcome, "throw"):
                result = yield from outcome
            else:
                result = outcome
        call.complete(result)
        return call

    # -- selective wait ----------------------------------------------------

    def select(self, alternatives: Sequence[Alternative],
               else_branch: bool = False, delay: float | None = None,
               terminate: bool = False
               ) -> Generator[Any, Any, tuple[Any, AcceptedCall | None]]:
        """Ada selective wait.

        Returns ``(entry_name, AcceptedCall)`` when an accept alternative is
        taken; ``(ELSE_TAKEN, None)``, ``(DELAY_TAKEN, None)`` or
        ``(TERMINATE_TAKEN, None)`` for the escape alternatives.  At most
        one of ``else_branch``/``delay``/``terminate`` may be supplied, as
        in Ada.  Raises :class:`AdaError` when no alternative is open and no
        escape exists (Ada's ``PROGRAM_ERROR``).
        """
        escapes = sum((else_branch, delay is not None, terminate))
        if escapes > 1:
            raise AdaError("at most one of else/delay/terminate is allowed")
        open_entries = [a.entry for a in alternatives if a.when]
        if not open_entries and not escapes:
            raise AdaError("PROGRAM_ERROR: selective wait with no open "
                           "alternative and no escape")

        def ready_entries() -> list[EntryName]:
            return [e for e in open_entries
                    if self.system._queue(self.name, e)]

        ready = ready_entries()
        if not ready:
            if else_branch:
                return ELSE_TAKEN, None
            if delay is not None:
                deadline = self.system.scheduler.now + delay
                # A no-op timer forces the clock (and waiter re-evaluation)
                # to reach the deadline even if nothing else is scheduled;
                # it is cancelled if a call arrives first so it does not
                # hold the virtual clock hostage.
                timer = self.system.scheduler.schedule_at(deadline,
                                                          lambda: None)
                yield WaitUntil(
                    lambda: bool(ready_entries())
                    or self.system.scheduler.now >= deadline,
                    f"selective wait with delay {delay}")
                timer.cancel()
                ready = ready_entries()
                if not ready:
                    return DELAY_TAKEN, None
            elif terminate:
                yield WaitUntil(
                    lambda: bool(ready_entries())
                    or self.system._others_all_finished(self.name),
                    "selective wait or terminate")
                ready = ready_entries()
                if not ready:
                    return TERMINATE_TAKEN, None
            else:
                yield WaitUntil(lambda: bool(ready_entries()),
                                f"selective wait on {open_entries!r}")
                ready = ready_entries()

        entry = (yield Choice(tuple(ready))) if len(ready) > 1 else ready[0]
        call = yield from self.accept(entry)
        return entry, call
