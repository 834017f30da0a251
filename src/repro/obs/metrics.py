"""Metrics registry: counters, gauges, and explicit-bucket histograms.

One registry unifies every subsystem ledger the reproduction has grown
— :class:`~repro.walks.EngineStats`, :class:`~repro.serve.ServeStats`
(global and per-tenant), the :class:`~repro.serve.HotWalkCache`
counters, and :class:`~repro.dynamic.DynamicGraph` delta/compaction
stats — into one namespace that the exporters render as Prometheus
text exposition or JSONL (:mod:`repro.obs.exporters`).

The bridge functions (``*_into``) translate each ledger into metrics
*by copy*: they read the ledger's already-maintained counters and write
them into a registry, so the hot paths that maintain those ledgers are
untouched and a registry built from a drained service reproduces the
ledgers exactly (``tests/obs`` asserts per-tenant equality and the
accounting identity ``offered == completed + dropped + failed`` on the
exported values).  Metric *types* follow Prometheus semantics: counters
are monotonically non-decreasing, gauges go both ways, histograms have
explicit ascending bucket bounds plus the implicit ``+Inf`` bucket.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator

from repro.errors import ObservabilityError

#: Latency histogram bounds in seconds: 0.5ms .. 2.5s, roughly log-spaced
#: around the micro-batching coalesce windows the serve layer uses.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Micro-batch occupancy bounds (requests per dispatched batch).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Sorted ``(key, value)`` label pairs — the dict key for one series.
LabelSet = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelSet:
    for name in labels:
        if not _LABEL_NAME.match(name):
            raise ObservabilityError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base class: a named family of series, one per label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str) -> None:
        if not _METRIC_NAME.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._series: dict[LabelSet, float] = {}

    def labelsets(self) -> list[LabelSet]:
        return sorted(self._series)

    def value(self, **labels) -> float:
        """Current value of one series (0.0 if never touched)."""
        return self._series.get(_label_key(labels), 0.0)


class Counter(Metric):
    """Monotonically non-decreasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount


class Gauge(Metric):
    """Point-in-time value that can move both ways."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)


class Histogram(Metric):
    """Cumulative histogram with explicit ascending bucket bounds.

    Per series we keep per-bound counts (plus the implicit ``+Inf``
    bucket), the observation sum, and the observation count — exactly
    the ``_bucket``/``_sum``/``_count`` triple Prometheus exposition
    expects (rendered cumulatively by the exporter).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 buckets: Iterable[float] = LATENCY_BUCKETS) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(f"histogram {name} needs >= 1 bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {name} bucket bounds must be strictly ascending"
            )
        if any(math.isinf(b) for b in bounds):
            raise ObservabilityError(
                f"histogram {name}: +Inf bucket is implicit, do not pass it"
            )
        self.buckets = bounds
        # One slot per explicit bound plus the +Inf overflow slot.
        self._counts: dict[LabelSet, list[int]] = {}
        self._sums: dict[LabelSet, float] = {}
        self._totals: dict[LabelSet, int] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            self._sums[key] = 0.0
            self._totals[key] = 0
        slot = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                slot = i
                break
        counts[slot] += 1
        self._sums[key] += float(value)
        self._totals[key] += 1
        self._series[key] = self._sums[key]

    def observe_many(self, values: Iterable[float], **labels) -> None:
        for value in values:
            self.observe(value, **labels)

    def labelsets(self) -> list[LabelSet]:
        return sorted(self._counts)

    def series(self, key: LabelSet) -> tuple[list[int], float, int]:
        """``(per-bound counts, sum, count)`` — raw, non-cumulative."""
        return self._counts[key], self._sums[key], self._totals[key]

    def count(self, **labels) -> int:
        return self._totals.get(_label_key(labels), 0)

    def sum(self, **labels) -> float:
        return self._sums.get(_label_key(labels), 0.0)


class MetricsRegistry:
    """Get-or-create metric namespace with type/help consistency checks."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ObservabilityError(
                    f"metric {name} already registered as {existing.kind}, "
                    f"not {cls.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def collect(self) -> Iterator[Metric]:
        """Every registered metric, sorted by name (exposition order)."""
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def totals(self) -> dict[str, dict[str, float]]:
        """Flat ``{metric: {label-string: value}}`` view for identity tests.

        Histograms contribute their ``_sum`` and ``_count`` series; the
        label string is the Prometheus-style ``k="v"`` join, empty for
        unlabelled series — the same flattening the JSONL replay in
        :mod:`repro.obs.exporters` reconstructs.
        """
        flat: dict[str, dict[str, float]] = {}
        for metric in self.collect():
            if isinstance(metric, Histogram):
                sums: dict[str, float] = {}
                counts: dict[str, float] = {}
                for key in metric.labelsets():
                    _, total_sum, total_count = metric.series(key)
                    label = format_labels(key)
                    sums[label] = total_sum
                    counts[label] = float(total_count)
                flat[f"{metric.name}_sum"] = sums
                flat[f"{metric.name}_count"] = counts
            else:
                flat[metric.name] = {
                    format_labels(key): metric._series[key]
                    for key in metric.labelsets()
                }
        return flat


def format_labels(key: LabelSet) -> str:
    """Render a label set as ``k1="v1",k2="v2"`` (empty when unlabelled)."""
    return ",".join(f'{k}="{_escape(v)}"' for k, v in key)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


# -- subsystem bridges ------------------------------------------------


def engine_stats_into(registry: MetricsRegistry, stats, **labels) -> None:
    """Copy an :class:`~repro.walks.EngineStats` ledger into ``registry``."""
    registry.counter(
        "repro_engine_hops_total", "Walk hops executed by the engine",
    ).inc(stats.total_hops, **labels)
    registry.counter(
        "repro_engine_sampling_proposals_total",
        "Neighbor proposals drawn (incl. rejection-sampling retries)",
    ).inc(stats.sampling_proposals, **labels)
    registry.counter(
        "repro_engine_neighbor_reads_total",
        "Adjacency-list elements touched",
    ).inc(stats.neighbor_reads, **labels)
    terminations = registry.counter(
        "repro_engine_terminations_total",
        "Walk terminations by cause",
    )
    terminations.inc(stats.early_terminations, cause="early", **labels)
    terminations.inc(stats.dangling_terminations, cause="dangling", **labels)
    terminations.inc(stats.probabilistic_terminations, cause="stop_prob", **labels)
    terminations.inc(stats.length_terminations, cause="max_length", **labels)


def serve_stats_into(registry: MetricsRegistry, stats, **labels) -> None:
    """Copy a :class:`~repro.serve.ServeStats` ledger into ``registry``.

    The exported counters reproduce the ledger exactly, so the
    accounting identity ``offered == completed + dropped + failed``
    holds on the export whenever it holds on the ledger.
    """
    requests = registry.counter(
        "repro_serve_requests_total",
        "Requests by final outcome (offered = completed + dropped + failed)",
    )
    requests.inc(stats.completed, outcome="completed", **labels)
    requests.inc(stats.dropped, outcome="dropped", **labels)
    requests.inc(stats.failed, outcome="failed", **labels)
    registry.counter(
        "repro_serve_cache_hits_total",
        "Requests served from the hot-walk cache (subset of completed)",
    ).inc(stats.cache_hits, **labels)
    registry.counter(
        "repro_serve_hops_total", "Walk hops executed on behalf of the service",
    ).inc(stats.total_hops, **labels)
    registry.counter(
        "repro_serve_busy_seconds_total",
        "Engine wall-clock summed over micro-batches",
    ).inc(stats.busy_seconds, **labels)
    registry.histogram(
        "repro_serve_latency_seconds",
        "Submit-to-resolve latency of completed requests",
        buckets=LATENCY_BUCKETS,
    ).observe_many(stats.latencies, **labels)
    registry.histogram(
        "repro_serve_batch_size",
        "Requests per dispatched micro-batch",
        buckets=BATCH_SIZE_BUCKETS,
    ).observe_many(stats.batch_sizes, **labels)


def cache_into(registry: MetricsRegistry, cache, **labels) -> None:
    """Copy :class:`~repro.serve.HotWalkCache` counters into ``registry``."""
    lookups = registry.counter(
        "repro_cache_lookups_total", "Hot-walk cache lookups by result",
    )
    lookups.inc(cache.hits, result="hit", **labels)
    lookups.inc(cache.misses, result="miss", **labels)
    pools = registry.counter(
        "repro_cache_pools_total", "Walk pools built / invalidated",
    )
    pools.inc(cache.pools_built, event="built", **labels)
    pools.inc(cache.pools_invalidated, event="invalidated", **labels)
    registry.gauge(
        "repro_cache_live_pools", "Walk pools currently installed",
    ).set(cache.live_pools, **labels)


def dynamic_graph_into(registry: MetricsRegistry, graph, **labels) -> None:
    """Copy :class:`~repro.dynamic.DynamicGraph` counters into ``registry``."""
    registry.counter(
        "repro_dynamic_updates_total", "Streamed edge updates applied",
    ).inc(graph.updates_applied, **labels)
    registry.counter(
        "repro_dynamic_compactions_total", "Delta-into-CSR compactions",
    ).inc(graph.compactions, **labels)
    registry.counter(
        "repro_dynamic_compaction_seconds_total",
        "Wall-clock spent compacting deltas into the CSR base",
    ).inc(graph.compaction_seconds, **labels)
    registry.gauge(
        "repro_dynamic_delta_edges", "Edge endpoints currently in the delta layer",
    ).set(graph.delta_edges, **labels)
    registry.gauge(
        "repro_dynamic_epoch", "Current published snapshot epoch",
    ).set(graph.epoch, **labels)
    builds = registry.counter(
        "repro_dynamic_state_builds_total",
        "Sampler-state member builds; kind=scratch past epoch 0 is a reader that asked late",
    )
    # (Duck-typed like the rest: a graph-like without the ledger has none.)
    for (member, kind), count in sorted(getattr(graph, "state_builds", {}).items()):
        builds.inc(count, member=member, kind=kind, **labels)


def tracer_into(registry: MetricsRegistry, tracer, **labels) -> None:
    """Export the tracer's own ring accounting (drops are data too)."""
    snap = tracer.snapshot()
    events = registry.counter(
        "repro_trace_events_total", "Span events recorded / dropped by the ring",
    )
    events.inc(snap["recorded"], state="recorded", **labels)
    events.inc(snap["dropped"], state="dropped", **labels)
    registry.gauge(
        "repro_trace_buffered_events", "Span events currently buffered",
    ).set(snap["buffered"], **labels)


# -- the global registry ----------------------------------------------
#
# CLI wrappers (``repro metrics``) read this after running a wrapped
# command; run paths feed it once per run (never per hop), so keeping it
# always-on costs nothing measurable.

_registry = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    return _registry


def reset_global_registry() -> MetricsRegistry:
    """Swap in a fresh global registry (tests / CLI run isolation)."""
    global _registry
    _registry = MetricsRegistry()
    return _registry
