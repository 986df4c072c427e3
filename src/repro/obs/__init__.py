"""Observability layer: structured tracing, metrics, and live progress.

Threads spans through every layer of the reproduction — the
discrete-event scheduler, the FFT pipeline, the tuning loop, and the
process pool — without perturbing the simulation: tracing is off by
default, instrumentation only *reads* virtual clocks, and a disabled
tracer costs one ``is None`` check per construct.  Counts and samples
go to the metrics registry, traced or not.

* :class:`Tracer` / :func:`tracing` / :func:`current_tracer` — the
  span collector and its installation scope;
* :func:`write_trace` / :func:`load_trace` — Chrome trace-event JSON
  and JSONL exporters (Perfetto-viewable, carrying a registry snapshot
  in their metadata) and their loaders;
* :func:`run_metrics` — overlap-efficiency / exposed-communication
  summary of one simulated run;
* :class:`ProgressLine` — live per-cell completion ticker with ETA;
* :class:`MetricsRegistry` / :func:`current_registry` — the one
  counter store: labeled counters/gauges/histograms with Prometheus
  text exposition and snapshot/delta/merge semantics (DESIGN.md §5.12);
* :func:`export_fleet_chrome` / :func:`span_records` — cross-host trace
  aggregation: worker span records merged into one Chrome trace with a
  process group per worker host;
* :class:`TopDashboard` / :func:`render_top` — the ``repro top`` live
  fleet dashboard over the coordinator's ``/status`` + ``/metrics``.
"""

from .export import (
    chrome_events,
    emit_rank_spans,
    export_chrome,
    export_fleet_chrome,
    export_jsonl,
    fleet_chrome_events,
    load_trace,
    rank_timelines,
    span_records,
    trace_meta,
    write_trace,
)
from .dashboard import TopDashboard, metric_total, render_top
from .metrics import EXPOSED_LABELS, OVERLAP_LABELS, run_metrics
from .progress import ProgressLine
from .registry import (
    MetricsRegistry,
    current_registry,
    global_registry,
    metrics_enabled,
    parse_prometheus,
    scoped_registry,
)
from .tracer import (
    Span,
    Tracer,
    VIRTUAL,
    WALL,
    current_tracer,
    install,
    tracing,
    uninstall,
)


__all__ = [
    "EXPOSED_LABELS",
    "MetricsRegistry",
    "OVERLAP_LABELS",
    "ProgressLine",
    "Span",
    "TopDashboard",
    "Tracer",
    "current_registry",
    "global_registry",
    "metrics_enabled",
    "parse_prometheus",
    "scoped_registry",
    "VIRTUAL",
    "WALL",
    "chrome_events",
    "current_tracer",
    "emit_rank_spans",
    "export_chrome",
    "export_fleet_chrome",
    "export_jsonl",
    "fleet_chrome_events",
    "install",
    "load_trace",
    "metric_total",
    "rank_timelines",
    "render_top",
    "run_metrics",
    "span_records",
    "trace_meta",
    "tracing",
    "uninstall",
    "write_trace",
]
