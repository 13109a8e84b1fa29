"""Metrics registry: counters, gauges and fixed-bucket histograms.

All quantities are *virtual-time* measurements — the registry never reads a
wall clock, so identical seeds produce identical summaries and metric
deltas are meaningful across machines.  The registry renders to aligned
plain text (for the ``python -m repro stats`` command) and to a plain dict
(for JSON export and the benchmark harness).

:class:`RuntimeMetrics` is the standard observer: attached to a scheduler
(and optionally a transport) it populates the registry's well-known
metric families — see DESIGN.md §8 for the full name catalogue.
It also works *post hoc*: feeding a recorded event stream through
:meth:`RuntimeMetrics.replay` recovers every event-derived metric (only the
hook-derived ones — match latency, board/waiter depth samples, transport
messages — need a live attachment).
"""

from __future__ import annotations

import bisect
from typing import Any, Hashable, Iterable, Mapping

from ..runtime.instrument import Sink
from ..runtime.scheduler import Scheduler
from ..runtime.tracing import EventKind, TraceEvent

#: Default histogram bucket upper bounds (virtual-time units).
DEFAULT_BUCKETS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot."""
        return {"kind": self.kind, "value": self.value}

    def render(self) -> str:
        """One-line plain-text rendering (value only)."""
        return str(self.value)


class Gauge:
    """A sampled level: tracks last, min, max and sample count."""

    __slots__ = ("name", "last", "min", "max", "samples")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.last: float = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.samples = 0

    def set(self, value: float) -> None:
        """Record one sample of the gauged quantity."""
        self.last = value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.samples += 1

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot."""
        return {"kind": self.kind, "last": self.last, "min": self.min,
                "max": self.max, "samples": self.samples}

    def render(self) -> str:
        """One-line plain-text rendering."""
        if not self.samples:
            return "no samples"
        return (f"last={self.last:g} min={self.min:g} max={self.max:g} "
                f"samples={self.samples}")


class Histogram:
    """Fixed-bucket histogram of virtual-time observations.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in an implicit overflow bucket.  Quantiles are reported as
    the upper bound of the bucket containing the quantile rank (exact
    maxima are tracked separately), which is cheap, deterministic, and
    plenty for spotting stalls.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "max")
    kind = "histogram"

    def __init__(self, name: str,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        self.max = max(self.max, value)

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile rank."""
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index == len(self.buckets):
                    return self.max
                return min(self.buckets[index], self.max)
        return self.max

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-able snapshot."""
        return {"kind": self.kind, "count": self.count, "sum": self.sum,
                "max": self.max, "mean": self.mean,
                "buckets": [[bound, count] for bound, count
                            in zip(self.buckets, self.counts)],
                "overflow": self.counts[-1],
                "p50": self.quantile(0.50), "p90": self.quantile(0.90),
                "p99": self.quantile(0.99)}

    def render(self) -> str:
        """One-line plain-text rendering."""
        if not self.count:
            return "no observations"
        occupied = " ".join(
            f"le{bound:g}:{count}" for bound, count
            in zip(self.buckets, self.counts) if count)
        if self.counts[-1]:
            occupied = (occupied + " " if occupied else "") + \
                f"inf:{self.counts[-1]}"
        return (f"count={self.count} mean={self.mean:g} max={self.max:g} "
                f"p50={self.quantile(0.5):g} p90={self.quantile(0.9):g} "
                f"p99={self.quantile(0.99):g} | {occupied}")


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named metrics, get-or-create, with text and dict renderers.

    Metric names follow ``family{label}`` for labeled families (e.g.
    ``faults_total{crash}``); the helpers build that form from a bare
    family name plus a ``label`` argument.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    @staticmethod
    def _key(name: str, label: Any = None) -> str:
        return f"{name}{{{label}}}" if label is not None else name

    def _get(self, cls: type, name: str, label: Any, **kwargs: Any) -> Any:
        key = self._key(name, label)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(key, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {key!r} already registered as "
                            f"{metric.kind}, not {cls.kind}")
        return metric

    def counter(self, name: str, label: Any = None) -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name, label)

    def gauge(self, name: str, label: Any = None) -> Gauge:
        """Get or create a gauge."""
        return self._get(Gauge, name, label)

    def histogram(self, name: str, label: Any = None,
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        return self._get(Histogram, name, label, buckets=buckets)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Metric:
        return self._metrics[name]

    def to_dict(self) -> dict[str, Any]:
        """{metric name: snapshot dict}, sorted by name."""
        return {name: self._metrics[name].to_dict()
                for name in sorted(self._metrics)}

    def render_text(self) -> str:
        """Aligned, sorted plain-text summary of every metric."""
        if not self._metrics:
            return "(no metrics recorded)"
        rows = [(metric.kind, name, metric.render())
                for name, metric in sorted(self._metrics.items())]
        kind_width = max(len(kind) for kind, _, _ in rows)
        name_width = max(len(name) for _, name, _ in rows)
        return "\n".join(f"{kind.ljust(kind_width)}  {name.ljust(name_width)}"
                         f"  {body}" for kind, name, body in rows)


class RuntimeMetrics(Sink):
    """The standard observer: fills a registry from kernel hooks + events.

    Attach with :meth:`attach` before running; or build one after the fact
    and :meth:`replay` a recorded event stream (hook-derived metrics are
    then absent, event-derived ones identical).
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        #: {performance id: (start, end)} for every finished performance,
        #: in end order; the stats renderer prints these individually.
        self.performance_spans: dict[str, tuple[float, float]] = {}
        self._posted_at: dict[Hashable, float] = {}
        self._enroll_at: dict[tuple[str, Hashable], float] = {}
        self._perf_start: dict[str, float] = {}
        self._scheduler: Scheduler | None = None

    # -- wiring ------------------------------------------------------------

    def attach(self, scheduler: Scheduler,
               transport: Any = None) -> "RuntimeMetrics":
        """Observe ``scheduler`` (and optionally its transport).

        Observers already attached, a journal recorder say, keep
        observing.
        """
        self._scheduler = scheduler
        scheduler.observe(self)
        scheduler.tracer.add_listener(self.on_event)
        if transport is not None:
            transport.observe(self)
        return self

    def replay(self, events: Iterable[TraceEvent]) -> "RuntimeMetrics":
        """Feed a recorded event stream through the event-derived metrics."""
        for event in events:
            self.on_event(event)
        return self

    # -- kernel hooks ------------------------------------------------------

    def on_offer_posted(self, time: float, process: Hashable) -> None:
        self._posted_at[process] = time

    def on_commit(self, time: float, sender: Hashable,
                  receiver: Hashable) -> None:
        registry = self.registry
        latency = registry.histogram("rendezvous_match_latency")
        for party in (sender, receiver):
            posted = self._posted_at.pop(party, None)
            if posted is not None:
                latency.observe(time - posted)
        # Depth and index gauges, sampled at each commit.
        scheduler = self._scheduler
        board = scheduler.board
        registry.gauge("board_size").set(scheduler.board_size)
        registry.gauge("waiter_depth").set(scheduler.waiter_count)
        registry.gauge("match_index_pairs").set(board.index_size)
        registry.gauge("match_index_dirty_events").set(board.dirty_events)
        registry.gauge("match_cache_hits").set(board.cache_hits)
        registry.gauge("match_swept_pairs").set(board.swept_pairs)

    def on_message(self, time: float, src: Any, dst: Any,
                   latency: float) -> None:
        self.registry.counter("messages_total").inc()
        if src == dst:
            self.registry.counter("messages_local").inc()
        else:
            self.registry.histogram("message_latency").observe(latency)

    def on_decision(self, time: float, kind: str, subject: Hashable,
                    payload: Any) -> None:
        self.registry.counter("scheduler_decisions_total", label=kind).inc()

    # -- event-derived metrics --------------------------------------------

    def on_event(self, event: TraceEvent) -> None:
        kind = event.kind
        registry = self.registry
        if kind is EventKind.COMM:
            registry.counter("comms_total").inc()
        elif kind is EventKind.SPAWN:
            registry.counter("processes_spawned").inc()
        elif kind is EventKind.TIMEOUT:
            registry.counter("timeouts_total").inc()
            self._posted_at.pop(event.process, None)
        elif kind is EventKind.FAULT:
            registry.counter("faults_total", label=event.get("fault")).inc()
        elif kind is EventKind.RECOVERY:
            action = event.get("action")
            registry.counter("recovery_actions_total", label=action).inc()
            if action == "restart_scheduled":
                registry.histogram("recovery_backoff_delay").observe(
                    event.get("delay", 0.0))
            elif action == "restart":
                registry.counter("recovery_restarts_total").inc()
            elif action == "quarantine":
                registry.counter("recovery_quarantines_total").inc()
            elif action == "performance_retry":
                registry.counter("performance_retries_total").inc()
            elif action == "retry_exhausted":
                registry.counter("recovery_retry_exhaustions_total").inc()
            elif action == "performance_recovered":
                registry.counter("performances_recovered").inc()
        elif kind is EventKind.ENROLL_REQUEST:
            key = (event.get("instance"), event.process)
            if event.get("withdrawn"):
                registry.counter("enrollments_withdrawn").inc()
                self._enroll_at.pop(key, None)
            else:
                registry.counter("enrollments_requested").inc()
                self._enroll_at[key] = event.time
        elif kind is EventKind.ENROLL_ACCEPT:
            requested = self._enroll_at.pop(
                (event.get("instance"), event.process), None)
            if requested is not None:
                registry.histogram("enroll_wait").observe(
                    event.time - requested)
        elif kind is EventKind.PERFORMANCE_START:
            registry.counter("performances_started").inc()
            self._perf_start[event.get("performance")] = event.time
        elif kind is EventKind.PERFORMANCE_END:
            registry.counter("performances_completed").inc()
            self._finish_performance(event, "performance_duration")
        elif kind is EventKind.PERFORMANCE_ABORT:
            registry.counter("performances_aborted").inc()
            self._finish_performance(event, "aborted_performance_duration")
        elif kind is EventKind.ROLE_CRASH:
            registry.counter("role_crashes_total").inc()
        elif kind is EventKind.PROC_DONE:
            self._posted_at.pop(event.process, None)
            if event.get("killed"):
                registry.counter("processes_killed").inc()
            else:
                registry.counter("processes_done").inc()
        elif kind is EventKind.PROC_FAIL:
            registry.counter("processes_failed").inc()
        elif kind is EventKind.INTERRUPT:
            registry.counter("interrupts_total").inc()
            self._posted_at.pop(event.process, None)

    def _finish_performance(self, event: TraceEvent, family: str) -> None:
        performance = event.get("performance")
        started = self._perf_start.pop(performance, None)
        if started is None:
            return
        self.registry.histogram(family).observe(event.time - started)
        self.performance_spans[performance] = (started, event.time)

    # -- reporting ---------------------------------------------------------

    def summary_lines(self) -> list[str]:
        """Registry text plus the per-performance duration table."""
        lines = self.registry.render_text().splitlines()
        if self.performance_spans:
            lines.append("")
            lines.append("per-performance durations:")
            width = max(len(p) for p in self.performance_spans)
            for perf, (start, end) in self.performance_spans.items():
                lines.append(f"  {perf.ljust(width)}  start={start:g} "
                             f"end={end:g} dur={end - start:g}")
        return lines

    def to_dict(self) -> dict[str, Any]:
        """JSON-able summary: metrics plus per-performance spans."""
        return {"metrics": self.registry.to_dict(),
                "performances": {perf: {"start": start, "end": end,
                                        "duration": end - start}
                                 for perf, (start, end)
                                 in self.performance_spans.items()}}
