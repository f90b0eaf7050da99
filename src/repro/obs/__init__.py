"""``repro.obs`` — dependency-free observability for the streaming pipeline.

Three layers, bundled by the :class:`Observability` facade:

- :mod:`repro.obs.metrics` — process-local counters, gauges, and
  histograms with labels, snapshots, and Prometheus text exposition;
- :mod:`repro.obs.trace` — nested wall-time spans with a zero-cost
  :class:`NullTracer` default;
- :mod:`repro.obs.events` — typed decision events (shift assessments,
  strategy selections, window decay, knowledge life cycle) streamed to
  JSONL/memory/composite sinks.

:mod:`repro.obs.report` turns a recorded JSONL trace back into per-strategy
latency percentiles, reuse hit-rates, and decay timelines.

:mod:`repro.obs.live` is the live telemetry plane: cross-worker
metric/event aggregation (:func:`drain_telemetry` /
:func:`absorb_telemetry`), a stdlib HTTP :class:`TelemetryServer`
(``/metrics``, ``/health``, ``/snapshot``), and an online SLO/alert
engine (:class:`SloRule` / :class:`SloEngine`).
"""

from .events import (
    DEFAULT_MEMORY_SINK_CAPACITY,
    EVENT_TYPES,
    AlertRaised,
    AlertResolved,
    AswDecayApplied,
    CecInvoked,
    CheckpointRejected,
    CheckpointWritten,
    CircuitOpened,
    CompositeSink,
    DegradedMode,
    Event,
    EventSink,
    JsonlSink,
    KnowledgeEvicted,
    KnowledgePreserved,
    KnowledgeReused,
    MemorySink,
    NullSink,
    RequestShed,
    ShiftAssessed,
    StrategySelected,
    TenantActivated,
    TenantEvicted,
    WorkerRestarted,
    event_from_dict,
    read_records,
)
from .facade import NULL_OBS, Observability
from .live import (
    SloEngine,
    SloRule,
    TelemetryServer,
    absorb_telemetry,
    build_snapshot,
    default_slo_rules,
    drain_telemetry,
    find_ring,
    parse_prometheus_text,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .report import TraceSummary, render_report, span_latency, summarize_trace
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "Tracer",
    "NullTracer",
    "Span",
    "NULL_TRACER",
    "Event",
    "ShiftAssessed",
    "StrategySelected",
    "AswDecayApplied",
    "KnowledgePreserved",
    "KnowledgeReused",
    "KnowledgeEvicted",
    "CecInvoked",
    "CheckpointWritten",
    "CheckpointRejected",
    "WorkerRestarted",
    "DegradedMode",
    "CircuitOpened",
    "TenantActivated",
    "TenantEvicted",
    "RequestShed",
    "AlertRaised",
    "AlertResolved",
    "EVENT_TYPES",
    "event_from_dict",
    "EventSink",
    "JsonlSink",
    "MemorySink",
    "CompositeSink",
    "NullSink",
    "DEFAULT_MEMORY_SINK_CAPACITY",
    "read_records",
    "drain_telemetry",
    "absorb_telemetry",
    "find_ring",
    "SloRule",
    "SloEngine",
    "default_slo_rules",
    "TelemetryServer",
    "build_snapshot",
    "parse_prometheus_text",
    "TraceSummary",
    "summarize_trace",
    "span_latency",
    "render_report",
]
