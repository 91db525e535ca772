"""Observability: structured logging, span tracing, provenance, metrics.

``repro.obs`` is the stdlib-only instrumentation layer every other
subsystem threads through (see ``docs/OBSERVABILITY.md``):

- :mod:`.logging` — ``get_logger(name)`` structured loggers with a
  human or JSON-lines formatter (``REPRO_LOG_LEVEL`` /
  ``REPRO_LOG_JSON``, or the CLI's ``--log-level`` / ``--log-json``);
- :mod:`.tracing` — ``span(...)`` context-manager/decorator timing
  named engine phases into a process-wide accumulator and, when
  installed, a :class:`TraceCollector` that exports Chrome
  ``trace_event`` JSON (``--trace-out``);
- :mod:`.provenance` — manifests tying a stored result to the config
  digest, workload spec, seed, code version, cache stats, and phase
  timings that produced it;
- :mod:`.metrics` — the Prometheus exposition layer plus
  :func:`process_metrics`, the process-wide registry the simulation
  core, in-run telemetry and the event bus feed;
- :mod:`.timeseries` — bounded, downsampling in-run telemetry: the
  :class:`SeriesChannel` ring, :class:`RunTimeline`, and the
  :class:`TelemetrySampler` the runner feeds each control step
  (``--telemetry-period`` / ``--no-telemetry``);
- :mod:`.detect` — phenomenon detectors scanning timelines for the
  paper's frequency-floor pinning, cap overshoot/settling, and
  energy-knee onset;
- :mod:`.stream` — the bounded pub/sub event bus behind the HTTP
  API's Server-Sent Events endpoint: each job's lifecycle events,
  live, with drop-oldest backpressure and ``Last-Event-ID`` replay.
"""

from .detect import (
    Detection,
    detect_cap_overshoot,
    detect_energy_knee,
    detect_frequency_floor,
    scan_experiment,
    scan_timeline,
)

from .logging import (
    HumanFormatter,
    JsonFormatter,
    StructuredLogger,
    configure_logging,
    get_logger,
    logging_configured,
)
from .metrics import (
    BuildInfo,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    ProcessMetrics,
    ServiceMetrics,
    process_metrics,
)
from .provenance import (
    PROVENANCE_SCHEMA_VERSION,
    build_provenance,
    config_digest,
    git_describe,
    render_provenance,
)
from .stream import (
    JOB_TOPIC_PREFIX,
    TERMINAL_EVENT_KINDS,
    EventBus,
    StreamEvent,
    Subscription,
    event_bus,
    reset_event_bus,
)
from .timeseries import (
    TIMELINE_SCHEMA_VERSION,
    RunTimeline,
    SeriesChannel,
    SeriesPoint,
    TelemetryConfig,
    TelemetrySampler,
    timeline_from_dict,
    timeline_to_dict,
)
from .tracing import (
    TraceCollector,
    current_collector,
    current_span_stack,
    phase_totals,
    reset_phase_totals,
    span,
    start_tracing,
    stop_tracing,
)

__all__ = [
    "get_logger",
    "configure_logging",
    "logging_configured",
    "StructuredLogger",
    "JsonFormatter",
    "HumanFormatter",
    "span",
    "TraceCollector",
    "start_tracing",
    "stop_tracing",
    "current_collector",
    "current_span_stack",
    "phase_totals",
    "reset_phase_totals",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "ServiceMetrics",
    "ProcessMetrics",
    "process_metrics",
    "BuildInfo",
    "StreamEvent",
    "Subscription",
    "EventBus",
    "event_bus",
    "reset_event_bus",
    "JOB_TOPIC_PREFIX",
    "TERMINAL_EVENT_KINDS",
    "TIMELINE_SCHEMA_VERSION",
    "SeriesPoint",
    "SeriesChannel",
    "RunTimeline",
    "TelemetryConfig",
    "TelemetrySampler",
    "timeline_to_dict",
    "timeline_from_dict",
    "Detection",
    "detect_frequency_floor",
    "detect_cap_overshoot",
    "detect_energy_knee",
    "scan_timeline",
    "scan_experiment",
    "PROVENANCE_SCHEMA_VERSION",
    "build_provenance",
    "config_digest",
    "git_describe",
    "render_provenance",
]
