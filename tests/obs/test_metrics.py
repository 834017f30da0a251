"""Metrics registry semantics and the subsystem bridge functions.

Counters refuse to decrease, histograms keep exact ``_bucket``/``_sum``/
``_count`` triples, the registry enforces one type per name — and the
``*_into`` bridges copy each subsystem ledger verbatim, which is what
makes the exported accounting identity tests in
``test_service_metrics.py`` meaningful.
"""

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
    dynamic_graph_into,
    engine_stats_into,
    format_labels,
    global_registry,
    reset_global_registry,
    serve_stats_into,
    tracer_into,
)
from repro.obs.trace import Tracer
from repro.serve.stats import ServeStats
from repro.walks import EngineStats


class TestCounter:
    def test_accumulates_per_labelset(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc(2, engine="batch")
        counter.inc(3, engine="batch")
        counter.inc(5, engine="jit")
        assert counter.value(engine="batch") == 5
        assert counter.value(engine="jit") == 5
        assert counter.value(engine="missing") == 0.0

    def test_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_label_order_does_not_split_series(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc(1, a="x", b="y")
        counter.inc(1, b="y", a="x")
        assert counter.value(a="x", b="y") == 2
        assert len(counter.labelsets()) == 1


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.set(12)
        assert gauge.value() == 12


class TestHistogram:
    def test_bucket_placement_sum_count(self):
        histogram = Histogram("h", "", buckets=(1.0, 10.0))
        histogram.observe_many([0.5, 1.0, 5.0, 100.0])
        counts, total_sum, total_count = histogram.series(())
        assert counts == [2, 1, 1]  # <=1, <=10, +Inf overflow
        assert total_sum == pytest.approx(106.5)
        assert total_count == 4

    def test_validates_bucket_bounds(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", "", buckets=())
        with pytest.raises(ObservabilityError):
            Histogram("h", "", buckets=(2.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", "", buckets=(1.0, float("inf")))


class TestRegistry:
    def test_get_or_create_returns_the_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total") is registry.counter("c_total")

    def test_type_conflicts_are_loud(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ObservabilityError):
            registry.gauge("name")

    def test_invalid_names_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("0bad")
        with pytest.raises(ObservabilityError):
            registry.counter("ok").inc(1, **{"label": "v", "also-bad": "v"})

    def test_collect_is_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("z_total")
        registry.counter("a_total")
        assert [m.name for m in registry.collect()] == ["a_total", "z_total"]

    def test_totals_flattens_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3, k="v")
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        flat = registry.totals()
        assert flat["c_total"] == {'k="v"': 3.0}
        assert flat["h_sum"] == {"": 0.5}
        assert flat["h_count"] == {"": 1.0}

    def test_format_labels_round_trips_escapes(self):
        assert format_labels((("k", 'a"b\\c'),)) == 'k="a\\"b\\\\c"'

    def test_global_registry_reset_swaps_instances(self):
        first = global_registry()
        second = reset_global_registry()
        assert second is not first
        assert global_registry() is second


class TestBridges:
    def test_engine_stats_bridge_copies_every_counter(self):
        stats = EngineStats()
        stats.total_hops = 100
        stats.sampling_proposals = 120
        stats.neighbor_reads = 300
        stats.early_terminations = 1
        stats.dangling_terminations = 2
        stats.probabilistic_terminations = 3
        stats.length_terminations = 4
        registry = MetricsRegistry()
        engine_stats_into(registry, stats, engine="batch")
        assert registry.get("repro_engine_hops_total").value(engine="batch") == 100
        terminations = registry.get("repro_engine_terminations_total")
        by_cause = {
            cause: terminations.value(cause=cause, engine="batch")
            for cause in ("early", "dangling", "stop_prob", "max_length")
        }
        assert by_cause == {
            "early": 1, "dangling": 2, "stop_prob": 3, "max_length": 4,
        }

    def test_serve_stats_bridge_preserves_the_accounting_identity(self):
        stats = ServeStats()
        for i in range(6):
            stats.record_submit(float(i))
        stats.record_drop()
        stats.record_drop()
        stats.record_admission(4)
        stats.record_service(hops=40, service_seconds=0.01)
        for i in range(5):
            stats.record_completions([0.002 * (i + 1)], float(10 + i))
        stats.record_failure(20.0)
        registry = MetricsRegistry()
        serve_stats_into(registry, stats, tenant="t0")
        requests = registry.get("repro_serve_requests_total")
        completed = requests.value(outcome="completed", tenant="t0")
        dropped = requests.value(outcome="dropped", tenant="t0")
        failed = requests.value(outcome="failed", tenant="t0")
        assert (completed, dropped, failed) == (5, 2, 1)
        assert completed + dropped + failed == stats.offered
        totals = registry.totals()
        tenant = 'tenant="t0"'
        assert totals["repro_serve_latency_seconds_count"][tenant] == len(stats.latencies)
        assert totals["repro_serve_latency_seconds_sum"][tenant] == \
            pytest.approx(sum(stats.latencies))
        assert registry.get("repro_serve_batch_size").buckets == BATCH_SIZE_BUCKETS
        assert totals["repro_serve_batch_size_count"][tenant] == 1

    def test_dynamic_graph_bridge_uses_duck_typed_counters(self):
        class FakeDynamic:
            updates_applied = 1200
            delta_edges = 40
            epoch = 9

        registry = MetricsRegistry()
        dynamic_graph_into(registry, FakeDynamic())
        assert registry.get("repro_dynamic_updates_total").value() == 1200
        assert registry.get("repro_dynamic_delta_edges").value() == 40
        assert registry.get("repro_dynamic_epoch").value() == 9

    def test_tracer_bridge_exports_ring_accounting(self):
        tracer = Tracer(capacity=2)
        tracer.enable()
        for i in range(5):
            tracer.instant("e", i=i)
        registry = MetricsRegistry()
        tracer_into(registry, tracer)
        events = registry.get("repro_trace_events_total")
        assert events.value(state="recorded") == 5
        assert events.value(state="dropped") == 3
        assert registry.get("repro_trace_buffered_events").value() == 2
