"""Observability substrate (S18): tracing, metrics, profiling (C2, C15).

The paper's self-awareness challenge (C2) and its call for responsible,
transparent operation (C15, and the AtLarge design vision) require
ecosystems that can *observe themselves*.  This package is that sense
organ for every simulation in :mod:`repro`:

- :mod:`~repro.observability.tracing` — causal spans over simulated
  time (event → task → machine chains), exportable to Chrome traces;
- :mod:`~repro.observability.metrics` — a pull-based registry of
  counters, gauges, and fixed-bucket histograms;
- :mod:`~repro.observability.profiling` — per-subsystem attribution of
  simulated-time and wall-time cost inside ``Simulator.run``;
- :mod:`~repro.observability.observer` — the single
  :class:`Observer` switch that arms all of it; disabled by default
  and zero-overhead when disabled;
- :mod:`~repro.observability.export` — deterministic JSON / Chrome
  trace serialization;
- :mod:`~repro.observability.streaming` — windowed telemetry
  aggregation evaluated at sim-time ticks *during* the run;
- :mod:`~repro.observability.slo` — declarative service objectives,
  error budgets, multi-window burn-rate alerting, deterministic
  :class:`AlertLog`;
- :mod:`~repro.observability.traceanalysis` — critical-path
  extraction, per-subsystem latency breakdowns, span-census diffs.

See docs/OBSERVABILITY.md for the operator's handbook.
"""

from .export import (
    chrome_trace,
    dumps_deterministic,
    science_digest,
    science_view,
    write_chrome_trace,
    write_trace_json,
)
from .federation import (
    TelemetryMerge,
    TelemetryMergeError,
    TelemetrySnapshot,
    fleet_digest,
    merge_histogram_entries,
    merge_snapshots,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_counts,
)
from .observer import Observer
from .openmetrics import openmetrics_name, render_openmetrics
from .profiling import DEFAULT_RULES, SubsystemProfiler
from .slo import (
    DEFAULT_BURN_RULES,
    AlertEvent,
    AlertLog,
    AvailabilityObjective,
    BurnRateRule,
    GoodputObjective,
    LatencyObjective,
    QueueWaitObjective,
    ServiceObjective,
    SLOEngine,
)
from .streaming import StreamingPipeline, StreamSeries, Window, watch_all
from .traceanalysis import (
    PathSegment,
    census_diff,
    critical_path,
    span_census,
    subsystem_breakdown,
)
from .tracing import Span, Tracer

__all__ = [
    "Observer",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "quantile_from_counts",
    "SubsystemProfiler",
    "DEFAULT_RULES",
    "chrome_trace",
    "dumps_deterministic",
    "science_digest",
    "science_view",
    "write_chrome_trace",
    "write_trace_json",
    "StreamingPipeline",
    "StreamSeries",
    "Window",
    "watch_all",
    "ServiceObjective",
    "AvailabilityObjective",
    "LatencyObjective",
    "QueueWaitObjective",
    "GoodputObjective",
    "BurnRateRule",
    "DEFAULT_BURN_RULES",
    "AlertEvent",
    "AlertLog",
    "SLOEngine",
    "PathSegment",
    "critical_path",
    "subsystem_breakdown",
    "span_census",
    "census_diff",
    "TelemetrySnapshot",
    "TelemetryMerge",
    "TelemetryMergeError",
    "merge_snapshots",
    "merge_histogram_entries",
    "fleet_digest",
    "openmetrics_name",
    "render_openmetrics",
]
