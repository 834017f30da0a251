"""``WalkService.snapshot_metrics``: exported counters == the ledgers.

The acceptance criterion for the telemetry layer's serve integration:
drive a real multi-tenant service (flash-crowd stressor, small gates
so shedding actually happens), export with
``snapshot_metrics``, and require

* per-tenant exported counters to equal the per-tenant ``ServeStats``
  ledgers exactly,
* the accounting identity ``offered == completed + dropped + failed``
  to hold per tenant on the *exported* values,
* the Prometheus text round-trip to carry the same numbers.
"""

import asyncio

import numpy as np
import pytest

from repro.graph import powerlaw
from repro.obs.exporters import parse_prometheus, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    ServeConfig,
    TenantSpec,
    TenantTrace,
    WalkService,
    flash_crowd_gaps,
    run_tenant_traces,
)
from repro.walks import DeepWalkSpec


REQUESTS_PER_TENANT = 60


@pytest.fixture(scope="module")
def driven_service():
    """One flash-crowd run: (service, reports), service drained."""
    graph = powerlaw(num_vertices=100, num_edges=500, seed=2, name="obs-serve")
    spec = DeepWalkSpec(max_length=10)
    rng = np.random.default_rng(4)
    candidates = np.nonzero(graph.degrees() > 0)[0]
    hot = rng.choice(candidates, size=6, replace=False)
    tenants = [
        TenantSpec("premium", weight=8, queue_depth=4 * REQUESTS_PER_TENANT),
        # A shallow gate for the stressor: the flash crowd must shed.
        TenantSpec("besteffort", weight=1, queue_depth=8),
    ]
    config = ServeConfig(max_batch=16, max_wait_ms=2.0,
                         queue_depth=4 * REQUESTS_PER_TENANT)
    traces = [
        TenantTrace(
            "premium",
            rng.choice(hot, size=REQUESTS_PER_TENANT, replace=True),
            # 30 ms of steady traffic beside the crowd.
            np.full(REQUESTS_PER_TENANT, 5e-4),
        ),
        TenantTrace(
            "besteffort",
            rng.choice(hot, size=REQUESTS_PER_TENANT, replace=True),
            # The burst must be dense enough to outrun the dispatcher:
            # at 50k req/s the 60-request crowd lands in ~0.7 ms, far
            # inside one max_wait window, so the 8-deep gate must shed.
            flash_crowd_gaps(REQUESTS_PER_TENANT, 50000.0, seed=6),
        ),
    ]

    async def _drive():
        service = WalkService(
            graph, spec, engine="batch", seed=11, config=config, tenants=tenants,
        )
        async with service:
            reports = await run_tenant_traces(service, traces)
        return service, reports

    return asyncio.run(_drive())


def test_per_tenant_counters_match_the_ledgers_exactly(driven_service):
    service, _ = driven_service
    registry = service.snapshot_metrics()
    requests = registry.get("repro_serve_requests_total")
    totals = registry.totals()
    for tenant, ledger in service.tenant_stats.items():
        assert requests.value(outcome="completed", tenant=tenant) == ledger.completed
        assert requests.value(outcome="dropped", tenant=tenant) == ledger.dropped
        assert requests.value(outcome="failed", tenant=tenant) == ledger.failed
        label = f'tenant="{tenant}"'
        assert totals["repro_serve_latency_seconds_count"][label] == len(ledger.latencies)
        assert totals["repro_serve_latency_seconds_sum"][label] == \
            pytest.approx(sum(ledger.latencies))


def test_lane_occupancy_and_service_counters_match_the_ledgers(driven_service):
    """The open frontier's lane-occupancy ledger — supersteps and the
    walkers they carried — is exported, beside hops and busy time, for
    the service-wide ledger and every tenant's."""
    service, _ = driven_service
    registry = service.snapshot_metrics()
    ledgers = [({}, service.stats)] + [
        ({"tenant": tenant}, ledger) for tenant, ledger in service.tenant_stats.items()
    ]
    for labels, ledger in ledgers:
        assert registry.get("repro_serve_supersteps_total").value(**labels) == ledger.supersteps
        assert registry.get("repro_serve_walker_steps_total").value(
            **labels) == ledger.walker_steps
        assert registry.get("repro_serve_hops_total").value(**labels) == ledger.total_hops
        assert registry.get("repro_serve_busy_seconds_total").value(
            **labels) == ledger.busy_seconds
    # The batch engine is frontier-served: the service stepped it itself.
    assert service.stats.supersteps > 0
    assert service.stats.walker_steps >= service.stats.supersteps
    samples = parse_prometheus(render_prometheus(registry))
    assert samples[("repro_serve_supersteps_total", "")] == service.stats.supersteps
    assert samples[("repro_serve_walker_steps_total", "")] == service.stats.walker_steps


def test_accounting_identity_holds_on_exported_values(driven_service):
    service, reports = driven_service
    registry = service.snapshot_metrics()
    requests = registry.get("repro_serve_requests_total")
    totals = registry.totals()
    for tenant, ledger in service.tenant_stats.items():
        exported_offered = sum(
            requests.value(outcome=outcome, tenant=tenant)
            for outcome in ("completed", "dropped", "failed")
        )
        assert exported_offered == ledger.offered, tenant
        # ...and the ledger agrees with what the driver observed.
        report = reports[tenant]
        assert ledger.completed == report.completed
        assert ledger.dropped == len(report.dropped)
    # The workload actually exercised both outcomes somewhere.
    assert requests.value(outcome="completed", tenant="premium") > 0
    assert sum(
        requests.value(outcome="dropped", tenant=t)
        for t in service.tenant_stats
    ) > 0, "flash crowd against an 8-deep gate should shed"


def test_global_counters_are_the_tenant_sums(driven_service):
    service, _ = driven_service
    registry = service.snapshot_metrics()
    requests = registry.get("repro_serve_requests_total")
    for outcome in ("completed", "dropped", "failed"):
        assert requests.value(outcome=outcome) == sum(
            requests.value(outcome=outcome, tenant=t)
            for t in service.tenant_stats
        )


def test_gauges_report_drained_state(driven_service):
    service, _ = driven_service
    registry = service.snapshot_metrics()
    assert registry.get("repro_serve_occupancy").value() == 0
    for tenant in service.tenant_stats:
        assert registry.get("repro_serve_backlog").value(tenant=tenant) == 0


def test_prometheus_round_trip_carries_the_ledgers(driven_service):
    service, _ = driven_service
    samples = parse_prometheus(render_prometheus(service.snapshot_metrics()))
    for tenant, ledger in service.tenant_stats.items():
        assert samples[(
            "repro_serve_requests_total",
            f'outcome="completed",tenant="{tenant}"',
        )] == ledger.completed
        assert samples[(
            "repro_serve_requests_total",
            f'outcome="dropped",tenant="{tenant}"',
        )] == ledger.dropped
        assert samples[(
            "repro_serve_latency_seconds_count", f'tenant="{tenant}"'
        )] == len(ledger.latencies)


def test_snapshot_extends_a_caller_registry(driven_service):
    service, _ = driven_service
    registry = MetricsRegistry()
    registry.counter("preexisting_total").inc(1)
    assert service.snapshot_metrics(registry) is registry
    assert registry.get("preexisting_total").value() == 1
    assert registry.get("repro_serve_requests_total") is not None


def test_snapshot_is_repeatable_and_read_only(driven_service):
    service, _ = driven_service
    first = service.snapshot_metrics().totals()
    second = service.snapshot_metrics().totals()
    assert first == second
