"""Per-layer measurement from outside the engine.

:class:`LayerProbe` times calls into each layer's public entry points and
keeps the resulting spans in memory.  Nothing under ``src/`` changes: the
probe rebinds the names the script engine calls through for the duration
of one traced run and puts them back afterwards.

* ``core`` enrollment — ``repro.core.instance.solve`` (delayed initiation);
* ``core`` joining — ``repro.core.instance.consistent_extension``
  (immediate initiation);
* ``core`` waits — every predicate of a ``WaitUntil`` the instance yields,
  timed per evaluation (no span: there are hundreds of thousands);
* role bodies — each ``ScriptDef`` role body, timed per resumption, so the
  figure covers the role code plus the ``RoleContext`` helpers it calls
  (on Figure 5 that is the Section III interpreter);
* ``runtime`` — the public :class:`~repro.obs.profile.Profiler`.  Core and
  body spans nest inside its dispatch and settle phases, so the kernel's
  self time is each phase minus the probe time it covered;
* pool waits — a tracer listener pairing ``ENROLL_REQUEST`` with
  ``ENROLL_ACCEPT`` in wall time.

Self time of a layer is its span durations minus the part covered by
nested probe spans.  Spans are written once, at the end, in the Chrome
trace format ``repro trace`` emits, with the profiler lane merged in.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

import repro.core.instance as engine
from repro.obs.export import merge_chrome_events, to_chrome_trace
from repro.obs.profile import Profiler
from repro.obs.spans import Span
from repro.runtime import EventKind, WaitUntil

#: Kernel phases that run probe-wrapped code (process steps run role
#: bodies and enrollment; settles poll waiter predicates).
_COVERING_PHASES = ("dispatch", "settle", "timers")


class LayerProbe:
    """Wall-clock spans and counters around each layer's entry points.

    One probe serves one traced batch.  The probe only observes: every
    wrapped call returns exactly what the wrapped function returned, so a
    traced run's trace events equal an untraced run's.
    """

    def __init__(self) -> None:
        self.clock = perf_counter_ns
        self.origin = self.clock()
        # Open frames: [layer, start_ns, child_ns, span_index or None].
        self._stack: list[list[Any]] = []
        #: Layer -> self ns, and layer -> number of timed calls.
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        #: Probe time inside each kernel phase, for runtime self time.
        self.covered_ns: Counter[str] = Counter()
        self._uncovered_ns = 0
        self.wait_ns = 0
        self.wait_polls = 0
        self.solve_hits = 0
        self.solve_pool_depth = 0
        self.pool_waits_ns: list[int] = []
        self._requested: dict[tuple[str, int], int] = {}
        #: In-memory spans: [name, start_ns, end_ns, parent, attrs].
        self.spans: list[list[Any]] = []
        self._performance_spans: dict[str, int] = {}
        self.current_performance: str | None = None
        self.profiler = _PhaseProfiler(self)

    # -- timing frames -----------------------------------------------------

    def _open(self, layer: str, attrs: dict[str, Any] | None,
              parent: int | None = None) -> None:
        index = None
        if attrs is not None:
            index = len(self.spans)
            self.spans.append([layer, 0, 0, parent, attrs])
        self._stack.append([layer, self.clock(), 0, index])

    def _close(self) -> None:
        end = self.clock()
        layer, start, child, index = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self._uncovered_ns += duration
        if index is not None:
            span = self.spans[index]
            span[1] = start
            span[2] = end

    def claim(self, phase: str) -> None:
        """Book probe time since the last claim to kernel ``phase``."""
        self.covered_ns[phase] += self._uncovered_ns
        self._uncovered_ns = 0

    # -- wrappers ----------------------------------------------------------

    def _solve(self, solve: Callable[..., Any]) -> Callable[..., Any]:
        def timed_solve(pool, *args, **kwargs):
            self.solve_pool_depth += len(pool)
            attrs = {"process": "core", "pool": len(pool)}
            self._open("core.solve", attrs)
            try:
                assignment = solve(pool, *args, **kwargs)
            finally:
                self._close()
            if assignment is not None:
                self.solve_hits += 1
            return assignment
        return timed_solve

    def _join(self, extension: Callable[..., Any]) -> Callable[..., Any]:
        def timed_extension(*args, **kwargs):
            self._open("core.join", {"process": "core",
                                     "performance": self.current_performance})
            try:
                return extension(*args, **kwargs)
            finally:
                self._close()
        return timed_extension

    def _wait_until(self, predicate: Callable[[], bool],
                    description: str = "condition") -> WaitUntil:
        # Predicates are polled ~170k times per broadcast performance and
        # call nothing the probe wraps: they skip the frame stack, so the
        # probe's own cost inflates the kernel's settle self time least.
        clock = self.clock
        stack = self._stack

        def timed_predicate() -> bool:
            start = clock()
            result = predicate()
            duration = clock() - start
            self.wait_ns += duration
            self.wait_polls += 1
            if stack:
                stack[-1][2] += duration
            else:
                self._uncovered_ns += duration
            return result
        return WaitUntil(timed_predicate, description)

    def wrap_body(self, body: Callable[..., Any]) -> Callable[..., Any]:
        """A role body timing each of its resumptions as a ``body`` span."""

        def timed_body(ctx: Any, **bound: Any):
            inner = body(ctx, **bound)
            performance = ctx.performance.id
            attrs = {"process": repr(ctx.process), "performance": performance}
            parent = self._performance_spans.get(performance)
            value: Any = None
            error: BaseException | None = None
            while True:
                self._open("body", attrs, parent)
                try:
                    if error is None:
                        effect = inner.send(value)
                    else:
                        effect = inner.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._close()
                try:
                    value, error = (yield effect), None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as thrown:  # forwarded into the body
                    value, error = None, thrown
        return timed_body

    def wrap_script(self, script: Any) -> None:
        """Replace every role body of ``script`` by its timed version."""
        for name, declaration in list(script.declarations.items()):
            script.declarations[name] = dataclasses.replace(
                declaration, body=self.wrap_body(declaration.body))

    @contextmanager
    def installed(self, scheduler: Any) -> Iterator["LayerProbe"]:
        """Wrap the engine's entry points and attach to ``scheduler``."""
        saved = (engine.solve, engine.consistent_extension, engine.WaitUntil)
        engine.solve = self._solve(saved[0])
        engine.consistent_extension = self._join(saved[1])
        engine.WaitUntil = self._wait_until
        self.profiler.attach(scheduler)
        scheduler.tracer.add_listener(self.on_event)
        try:
            yield self
        finally:
            scheduler.tracer.remove_listener(self.on_event)
            (engine.solve, engine.consistent_extension,
             engine.WaitUntil) = saved

    # -- tracer listener ---------------------------------------------------

    def on_event(self, event: Any) -> None:
        kind = event.kind
        if kind is EventKind.ENROLL_REQUEST:
            key = (event.details["instance"], event.details["seq"])
            if event.details.get("withdrawn"):
                self._requested.pop(key, None)
            else:
                self._requested[key] = self.clock()
        elif kind is EventKind.ENROLL_ACCEPT:
            key = (event.details["instance"], event.details["seq"])
            start = self._requested.pop(key, None)
            if start is not None:
                self.pool_waits_ns.append(self.clock() - start)
        elif kind is EventKind.PERFORMANCE_START:
            performance = event.details["performance"]
            self.current_performance = performance
            self._performance_spans[performance] = len(self.spans)
            now = self.clock()
            self.spans.append(["performance", now, now, None,
                               {"process": "performances",
                                "performance": performance}])
        elif kind is EventKind.PERFORMANCE_END:
            index = self._performance_spans.get(event.details["performance"])
            if index is not None:
                self.spans[index][2] = self.clock()

    # -- export ------------------------------------------------------------

    def add_span(self, name: str, start_ns: int, end_ns: int,
                 attrs: dict[str, Any]) -> None:
        """Record a span measured elsewhere (the benchmark's enroll calls)."""
        self.spans.append([name, start_ns, end_ns, None, attrs])

    def chrome_trace(self) -> str:
        """The spans plus the profiler lane, as Chrome trace-event JSON.

        Span times are wall milliseconds since the probe was created
        (``to_chrome_trace`` shows one time unit as one millisecond); the
        profiler lane's nanosecond widths are scaled to match.
        """
        def ms(ns: int) -> float:
            return (ns - self.origin) / 1e6

        spans = [Span(sid=str(i), parent=None if parent is None
                      else str(parent), kind=name.split(".")[0], name=name,
                      start=ms(start), end=ms(max(start, end)), attrs=attrs)
                 for i, (name, start, end, parent, attrs)
                 in enumerate(self.spans)]
        lane = []
        for event in self.profiler.report().chrome_events():
            event = dict(event)
            if "dur" in event:
                event["ts"] = event["ts"] / 1e3
                event["dur"] = event["dur"] / 1e3
            lane.append(event)
        return merge_chrome_events(to_chrome_trace(spans), lane)


class _PhaseProfiler(Profiler):
    """The public profiler, also booking probe time to the phase it ran in."""

    def __init__(self, probe: LayerProbe):
        super().__init__()
        self._probe = probe

    def on_phase(self, phase: str, ns: int) -> None:
        super().on_phase(phase, ns)
        if phase in _COVERING_PHASES:
            self._probe.claim(phase)
