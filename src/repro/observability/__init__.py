"""Lightweight, zero-dependency tracing and metrics for the scheduler core.

The subsystem has five modules:

* :mod:`repro.observability.tracer` — the :class:`Tracer` hook protocol the
  scheduler core calls into.  The default :class:`NullTracer` keeps every
  hot path allocation-free (one ``tracer.enabled`` branch per event site);
  :class:`RecordingTracer` materializes events in memory,
  :class:`JsonlTracer` streams them to disk, and :class:`TeeTracer` fans
  one event stream out to several sinks.
* :mod:`repro.observability.metrics` — :class:`MetricsCollector`, a tracer
  that aggregates events into counters/timings, and the serializable
  :class:`RunMetrics` aggregate it produces.
* :mod:`repro.observability.report` — plain-text rendering of per-scheduler
  summaries and link-utilization tables from collected metrics.
* :mod:`repro.observability.timeline` — :class:`TimelineCollector`, a
  tracer that folds the event stream into a mergeable, schema-versioned
  simulated-time :class:`Timeline` (link utilization/oversubscription
  series, storage occupancy, per-class slack trajectories, and the
  per-request forensics ledger behind :meth:`Timeline.explain`).
* :mod:`repro.observability.export` — timeline exporters: Chrome
  trace-event JSON (Perfetto-compatible) and the self-contained HTML
  report behind ``datastage report``.

Tracing is ambient: ``with use_tracer(t): ...`` installs a tracer for the
current process; :class:`~repro.core.state.NetworkState` captures the
ambient tracer at construction, so every run started inside the block is
observed.  Tracers only observe — enabling one never changes scheduling
decisions (pinned by a property test).

Where the time goes is measured from outside the program:
``bench/layers.py`` wraps the hot entry points and reports per-layer call
counts and self times.
"""

from repro.observability.metrics import (
    MetricsCollector,
    RunMetrics,
    TimingStat,
)
from repro.observability.export import (
    chrome_trace_events,
    render_html_report,
    write_chrome_trace,
    write_html_report,
)
from repro.observability.report import (
    render_link_utilization,
    render_run_metrics,
    render_scheduler_summaries,
    render_timeline,
)
from repro.observability.timeline import (
    ClassSeries,
    LinkSeries,
    RequestForensics,
    StorageSeries,
    Timeline,
    TimelineCollector,
)
from repro.observability.tracer import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    TeeTracer,
    TraceEvent,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "MetricsCollector",
    "RunMetrics",
    "TimingStat",
    "render_link_utilization",
    "render_run_metrics",
    "render_scheduler_summaries",
    "render_timeline",
    "ClassSeries",
    "LinkSeries",
    "RequestForensics",
    "StorageSeries",
    "Timeline",
    "TimelineCollector",
    "chrome_trace_events",
    "render_html_report",
    "write_chrome_trace",
    "write_html_report",
    "NULL_TRACER",
    "JsonlTracer",
    "NullTracer",
    "RecordingTracer",
    "TeeTracer",
    "TraceEvent",
    "Tracer",
    "current_tracer",
    "use_tracer",
]
