"""Unified telemetry: span tracing, a metrics registry, and exporters.

One instrumentation story for every subsystem grown in PRs 1–8.  The
:mod:`~repro.obs.trace` tracer records where time goes *inside* a run
(supersteps, lanes, serve dispatcher steps, dynamic snapshots, cache
pool fills) into a bounded ring; the
:mod:`~repro.obs.metrics` registry unifies the end-of-run ledgers
(``EngineStats``, ``ServeStats``, tenant QoS ledgers, cache and dynamic
graph counters) into Prometheus-shaped counters/gauges/histograms; the
:mod:`~repro.obs.exporters` render both as JSONL, Chrome
``trace_event`` JSON (Perfetto-loadable), or Prometheus text.

The contract that keeps this shippable: tracing is **off by default**
and its disabled path is one tracer lookup per closed run
(``tests/obs/test_tracer.py`` counts it), and nothing in
this package ever touches RNG state — traced runs are bit-identical to
untraced runs.  Entry points: ``repro trace`` / ``repro metrics`` wrap
any CLI run; ``WalkService.snapshot_metrics()`` exports a live service.
"""

from repro.obs.exporters import (
    chrome_trace,
    parse_prometheus,
    render_prometheus,
    replay_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    cache_into,
    dynamic_graph_into,
    engine_stats_into,
    global_registry,
    reset_global_registry,
    serve_stats_into,
    tracer_into,
)
from repro.obs.trace import (
    DEFAULT_CAPACITY,
    SpanEvent,
    Tracer,
    active,
    configure_tracer,
    disable_tracing,
    enable_tracing,
    span,
    tracing,
)

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "DEFAULT_CAPACITY",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "SpanEvent",
    "Tracer",
    "active",
    "cache_into",
    "chrome_trace",
    "configure_tracer",
    "disable_tracing",
    "dynamic_graph_into",
    "enable_tracing",
    "engine_stats_into",
    "global_registry",
    "parse_prometheus",
    "render_prometheus",
    "replay_jsonl",
    "reset_global_registry",
    "serve_stats_into",
    "span",
    "tracer_into",
    "tracing",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
