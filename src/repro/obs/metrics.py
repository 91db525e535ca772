"""Prometheus-style telemetry for the engine and the service.

A tiny, dependency-free metrics layer: counters, gauges (static or
callback-backed, optionally labelled), and cumulative histograms,
rendered in the Prometheus text exposition format (version 0.0.4) for
``GET /metrics``.  All mutation is thread-safe — the scheduler's
worker pool, the HTTP handler threads, and the simulation engine all
share these registries.

``GET /metrics`` renders two registries: the service's own
:class:`ServiceMetrics`, then :class:`ProcessMetrics`, the one
process-wide registry (:func:`process_metrics`) that the simulation
engine, the telemetry sampler, the detectors and the event bus feed.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .stream import event_bus
from .tracing import phase_totals

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "ServiceMetrics",
    "ProcessMetrics",
    "process_metrics",
    "BuildInfo",
]

#: (metric name, labels, value)
Sample = Tuple[str, Dict[str, str], float]


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    def esc(v: str) -> str:
        return str(v).replace("\\", "\\\\").replace('"', '\\"')

    inner = ",".join(f'{k}="{esc(v)}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class Metric:
    """Base: a named metric that can emit exposition samples."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()

    def samples(self) -> List[Sample]:
        """Current ``(name, labels, value)`` samples for exposition."""
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help_text: str) -> None:
        super().__init__(name, help_text)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        with self._lock:
            return self._value

    def samples(self) -> List[Sample]:
        """One unlabelled sample holding the current count."""
        return [(self.name, {}, self.value)]


class Gauge(Metric):
    """Point-in-time value: set directly or computed at scrape time.

    A callback returning a float yields one unlabelled sample; a
    callback returning a dict yields one sample per key, labelled with
    ``label_name``.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        callback: Optional[Callable[[], "float | Dict[str, float]"]] = None,
        label_name: str = "state",
    ) -> None:
        super().__init__(name, help_text)
        self._value = 0.0
        self._callback = callback
        self._label_name = label_name

    def set(self, value: float) -> None:
        """Set the gauge (only meaningful without a callback)."""
        with self._lock:
            self._value = float(value)

    def samples(self) -> List[Sample]:
        """The stored value, or the callback's value(s) at scrape time."""
        if self._callback is None:
            with self._lock:
                return [(self.name, {}, self._value)]
        value = self._callback()
        if isinstance(value, dict):
            return [
                (self.name, {self._label_name: k}, float(v))
                for k, v in sorted(value.items())
            ]
        return [(self.name, {}, float(value))]


class Histogram(Metric):
    """Cumulative histogram with fixed upper-bound buckets."""

    kind = "histogram"

    DEFAULT_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        self._bounds = tuple(sorted(float(b) for b in buckets))
        self._counts = [0] * len(self._bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self._bounds):
                if value <= bound:
                    self._counts[i] += 1

    def samples(self) -> List[Sample]:
        """Cumulative ``_bucket`` series plus ``_sum`` and ``_count``."""
        with self._lock:
            counts, total, s = list(self._counts), self._count, self._sum
        out: List[Sample] = []
        # _counts is already cumulative: observe() increments every
        # bucket whose bound admits the value.
        for bound, count in zip(self._bounds, counts):
            out.append(
                (f"{self.name}_bucket", {"le": _format_value(bound)}, count)
            )
        out.append((f"{self.name}_bucket", {"le": "+Inf"}, total))
        out.append((f"{self.name}_sum", {}, s))
        out.append((f"{self.name}_count", {}, total))
        return out


class BuildInfo(Metric):
    """Info-style gauge: one constant ``1`` sample carrying its labels.

    The Prometheus ``*_info`` convention — the payload is the label
    set (package version, git rev, schema versions), the value is
    always 1, and joins against it correlate any other series with
    the build that produced it.  :class:`Gauge`'s dict-callback form
    emits one sample per key under a single label name, which cannot
    express a multi-label constant — hence a dedicated metric.

    ``labels`` is called once, at the first scrape: resolving the git
    revision starts a subprocess, which a process that never renders
    its metrics should not pay for.
    """

    kind = "gauge"

    def __init__(
        self, name: str, help_text: str, labels: Callable[[], Dict[str, str]]
    ) -> None:
        super().__init__(name, help_text)
        self._resolve = labels
        self._labels: Optional[Dict[str, str]] = None

    @property
    def labels(self) -> Dict[str, str]:
        """The build identity this metric carries."""
        with self._lock:
            if self._labels is None:
                self._labels = {
                    k: str(v) for k, v in self._resolve().items()
                }
            return dict(self._labels)

    def samples(self) -> List[Sample]:
        """The single constant sample, labels attached."""
        return [(self.name, self.labels, 1.0)]


class MetricsRegistry:
    """Ordered collection of metrics with a text-format renderer."""

    def __init__(self) -> None:
        self._metrics: List[Metric] = []
        self._lock = threading.Lock()

    def register(self, metric: Metric) -> Metric:
        """Add a metric (names must be unique) and return it."""
        with self._lock:
            if any(m.name == metric.name for m in self._metrics):
                raise ValueError(f"duplicate metric name {metric.name!r}")
            self._metrics.append(metric)
        return metric

    def render(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        lines: List[str] = []
        with self._lock:
            metrics = list(self._metrics)
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for name, labels, value in metric.samples():
                lines.append(
                    f"{name}{_format_labels(labels)} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"


def _build_labels() -> Dict[str, str]:
    """The package version, git revision and persistence schema versions."""
    # Local imports: the package root imports this module.
    from .. import __version__
    from .provenance import PROVENANCE_SCHEMA_VERSION, git_describe
    from .timeseries import TIMELINE_SCHEMA_VERSION

    return {
        "version": __version__,
        "git": git_describe() or "unknown",
        "provenance_schema": str(PROVENANCE_SCHEMA_VERSION),
        "timeline_schema": str(TIMELINE_SCHEMA_VERSION),
    }


class ProcessMetrics(MetricsRegistry):
    """The process-wide registry: one per process (:func:`process_metrics`).

    Its series, in exposition order:

    - ``repro_build_info`` — the build identity (:class:`BuildInfo`):
      package version, git revision (``unknown`` outside a checkout)
      and the schema versions of provenance manifests and telemetry
      timelines.
    - ``repro_engine_*`` — simulation internals (runs, control quanta,
      fast-forwards, kernel blocks, batch marches, trace simulations,
      rate-cache lookups, run wall-clock), which the engine adds to on
      its cold paths: nothing here runs per control quantum except a
      batched add at run end.  ``repro_engine_phase_seconds`` is read
      from the tracing phase accumulator at scrape time.
    - ``repro_telemetry_*`` — in-run telemetry, added once per finished
      run (:meth:`observe_timeline`) and once per detector scan
      (:meth:`observe_detections`).
    - ``repro_stream_*`` — read from the process-wide
      :class:`~repro.obs.stream.EventBus` at scrape time, so publishing
      pays no metric bookkeeping.

    The values cover the scraped process only.  That is the whole
    story for the service's thread workers; shard processes
    (``serve --shards``) keep their own registry, which the parent's
    ``/metrics`` does not include.
    """

    def __init__(self) -> None:
        super().__init__()
        reg = self.register
        self.build_info = reg(
            BuildInfo(
                "repro_build_info",
                "Build identity of this process (constant 1)",
                _build_labels,
            )
        )
        self.runs = reg(
            Counter("repro_engine_runs_total", "Completed simulation runs")
        )
        self.quanta = reg(
            Counter(
                "repro_engine_quanta_total",
                "Control-loop iterations (BMC controller actuations)",
            )
        )
        self.fast_forwards = reg(
            Counter(
                "repro_engine_fast_forward_total",
                "Steady-state fast-forward activations",
            )
        )
        self.block_steps = reg(
            Counter(
                "repro_engine_block_steps_total",
                "Stable-segment blocks retired by the block-step kernel",
            )
        )
        self.block_quanta = reg(
            Counter(
                "repro_engine_block_quanta_total",
                "Control quanta retired inside block-step kernel blocks",
            )
        )
        self.batch_runs = reg(
            Counter(
                "repro_engine_batch_runs_total",
                "Runs that retired at least one multi-run batched segment",
            )
        )
        self.batch_quanta = reg(
            Counter(
                "repro_engine_batch_quanta_total",
                "Control quanta retired inside multi-run batch marches",
            )
        )
        self.traces_simulated = reg(
            Counter(
                "repro_engine_traces_simulated_total",
                "Trace-slice simulations that actually ran (cache misses)",
            )
        )
        self.rate_cache_hits = reg(
            Counter(
                "repro_engine_rate_cache_hits_total",
                "Persistent rate-cache lookups served from cache",
            )
        )
        self.rate_cache_misses = reg(
            Counter(
                "repro_engine_rate_cache_misses_total",
                "Persistent rate-cache lookups that missed",
            )
        )
        self.run_seconds = reg(
            Histogram(
                "repro_engine_run_seconds",
                "Wall-clock seconds per simulation run",
                buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
                         30.0, 60.0),
            )
        )
        reg(
            Gauge(
                "repro_engine_phase_seconds",
                "Cumulative wall-clock seconds per instrumented span",
                callback=self._phase_seconds,
                label_name="phase",
            )
        )
        self.telemetry_runs = reg(
            Counter(
                "repro_telemetry_runs_total",
                "Runs that recorded a telemetry timeline",
            )
        )
        self.telemetry_samples = reg(
            Counter(
                "repro_telemetry_samples_total",
                "Raw telemetry sampler record() calls",
            )
        )
        self.telemetry_points = reg(
            Counter(
                "repro_telemetry_points_total",
                "Timeline points held at run end (post-decimation)",
            )
        )
        self.telemetry_decimations = reg(
            Counter(
                "repro_telemetry_decimations_total",
                "2x ring decimation passes across all channels",
            )
        )
        self.telemetry_channels = reg(
            Gauge(
                "repro_telemetry_channels",
                "Channels recorded in the most recent timeline",
            )
        )
        self._detections_lock = threading.Lock()
        self._detections: Dict[str, float] = {}
        reg(
            Gauge(
                "repro_telemetry_detections_total",
                "Detector hits by phenomenon",
                callback=self._detection_counts,
                label_name="phenomenon",
            )
        )
        reg(
            Gauge(
                "repro_stream_events_total",
                "Events published to the live stream bus",
                callback=lambda: float(event_bus().published_total()),
            )
        )
        reg(
            Gauge(
                "repro_stream_dropped_total",
                "Stream events dropped by slow subscribers "
                "(drop-oldest backpressure)",
                callback=lambda: float(event_bus().dropped_total()),
            )
        )
        reg(
            Gauge(
                "repro_stream_subscribers",
                "Live stream subscriptions across all topics",
                callback=lambda: float(event_bus().subscriber_count()),
            )
        )

    @staticmethod
    def _phase_seconds() -> Dict[str, float]:
        return {
            name: acc["seconds"] for name, acc in phase_totals().items()
        }

    def _detection_counts(self) -> Dict[str, float]:
        with self._detections_lock:
            return dict(self._detections)

    def observe_timeline(self, sampler, timeline) -> None:
        """Batch-record one finished run's sampler + timeline stats."""
        self.telemetry_runs.inc()
        self.telemetry_samples.inc(sampler.samples)
        channels = list(timeline.channels.values())
        self.telemetry_points.inc(sum(len(c) for c in channels))
        self.telemetry_decimations.inc(sum(c.decimations for c in channels))
        self.telemetry_channels.set(len(channels))

    def observe_detections(self, phenomena: "Sequence[str]") -> None:
        """Count detector hits, labelled by phenomenon name."""
        with self._detections_lock:
            for name in phenomena:
                self._detections[name] = self._detections.get(name, 0.0) + 1.0


_PROCESS_METRICS = ProcessMetrics()


def process_metrics() -> ProcessMetrics:
    """The process-wide :class:`ProcessMetrics` registry."""
    return _PROCESS_METRICS


class ServiceMetrics:
    """The experiment service's standard instrument panel.

    Gauges for queue depth, per-state job counts, and rate-cache
    hit/miss totals are callback-backed — :meth:`bind` wires them to
    the live scheduler at service start so scrapes always see current
    values without any bookkeeping on the hot path.

    :meth:`render` appends the process-wide registry
    (:func:`process_metrics`), so one ``/metrics`` scrape covers the
    service, the simulation core, in-run telemetry and the event bus.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        reg = self.registry.register
        self.jobs_submitted = reg(
            Counter("repro_jobs_submitted_total", "Jobs accepted via submit()")
        )
        self.jobs_completed = reg(
            Counter("repro_jobs_completed_total", "Jobs that reached DONE")
        )
        self.jobs_failed = reg(
            Counter(
                "repro_jobs_failed_total",
                "Jobs that exhausted their retry budget",
            )
        )
        self.job_retries = reg(
            Counter(
                "repro_job_retries_total",
                "Worker crashes that re-queued a job with backoff",
            )
        )
        self.dedup_hits = reg(
            Counter(
                "repro_store_dedup_hits_total",
                "Submissions answered from the result store without "
                "re-simulation",
            )
        )
        self.jobs_coalesced = reg(
            Counter(
                "repro_jobs_coalesced_total",
                "Jobs answered by a queued or running twin's execution",
            )
        )
        self.sweep_seconds = reg(
            Histogram(
                "repro_sweep_wall_seconds",
                "Wall-clock seconds per completed sweep job",
            )
        )
        self.submit_seconds = reg(
            Histogram(
                "repro_submit_seconds",
                "Server-side seconds spent handling one POST /jobs",
                buckets=(
                    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                    0.1, 0.25, 0.5, 1.0, 2.5,
                ),
            )
        )
        self._queue_depth = Gauge(
            "repro_queue_depth", "Jobs queued and not yet running"
        )
        self._jobs_by_state = Gauge(
            "repro_jobs", "Known jobs by lifecycle state", label_name="state"
        )
        self._cache_hits = Gauge(
            "repro_rate_cache_hits_total",
            "Rate-cache lookups served from the shared cache",
        )
        self._cache_misses = Gauge(
            "repro_rate_cache_misses_total",
            "Rate-cache lookups that required trace simulation",
        )
        self._admission_shed = Gauge(
            "repro_admission_shed_total",
            "Submissions shed by admission control, by reason",
            label_name="reason",
        )
        self._admission_queue_limit = Gauge(
            "repro_admission_queue_limit",
            "Queue depth beyond which submissions shed with 503",
        )
        self._admission_clients = Gauge(
            "repro_admission_clients",
            "Distinct clients currently tracked by the rate limiter",
        )
        self._shards = Gauge(
            "repro_service_shards",
            "Worker shard processes the scheduler dispatches to "
            "(0 = in-process execution)",
        )
        for g in (
            self._queue_depth,
            self._jobs_by_state,
            self._cache_hits,
            self._cache_misses,
            self._admission_shed,
            self._admission_queue_limit,
            self._admission_clients,
            self._shards,
        ):
            self.registry.register(g)

    def bind(
        self,
        queue_depth: Callable[[], float],
        jobs_by_state: Callable[[], Dict[str, float]],
        cache_hits: Callable[[], float],
        cache_misses: Callable[[], float],
    ) -> None:
        """Attach the scrape-time callbacks (called once by the scheduler)."""
        self._queue_depth._callback = queue_depth
        self._jobs_by_state._callback = jobs_by_state
        self._cache_hits._callback = cache_hits
        self._cache_misses._callback = cache_misses

    def bind_admission(self, controller) -> None:
        """Expose an :class:`~repro.service.admission.AdmissionController`.

        Called once when the service wires its admission gate; scrapes
        then read the live shed counters and client table size.
        """
        self._admission_shed._callback = controller.shed_counts
        self._admission_queue_limit._callback = (
            lambda: float(controller.max_queue_depth)
        )
        self._admission_clients._callback = (
            lambda: float(controller.client_count())
        )

    def bind_shards(self, effective_shards: Callable[[], float]) -> None:
        """Expose the scheduler's effective shard count."""
        self._shards._callback = effective_shards

    def render(self) -> str:
        """Text exposition: this service's registry, then the
        process-wide one."""
        return self.registry.render() + process_metrics().render()
