"""Trace a flash crowd: telemetry from a multi-tenant serve run.

Drives a two-tenant flash-crowd workload (a steady premium stream plus
a best-effort burst dense enough to shed) against the async walk
service, with span tracing on.  Writes

* ``flash_crowd_trace.json`` — Chrome ``trace_event`` JSON: open
  https://ui.perfetto.dev and drag the file in to see one
  ``serve.step`` span per dispatcher turn and the shed markers;
* ``flash_crowd_metrics.prom`` — a Prometheus text snapshot of the
  service's exported metrics (tenant ledgers, engine counters, gauges);

then verifies the exported counters against the in-memory per-tenant
ledgers — the accounting identity ``offered == completed + dropped +
failed`` holds exactly on the exported values.

Run:  PYTHONPATH=src python examples/trace_flash_crowd.py
"""

import asyncio

import numpy as np

from repro.graph import powerlaw
from repro.obs import render_prometheus, tracing, write_chrome_trace, write_prometheus
from repro.serve import (
    ServeConfig,
    TenantSpec,
    TenantTrace,
    WalkService,
    flash_crowd_gaps,
    run_tenant_traces,
)
from repro.walks import DeepWalkSpec

REQUESTS_PER_TENANT = 300
TRACE_OUT = "flash_crowd_trace.json"
METRICS_OUT = "flash_crowd_metrics.prom"


def build_workload():
    """A small powerlaw graph, two tenants, and their arrival traces."""
    graph = powerlaw(num_vertices=2000, num_edges=16000, seed=2,
                     name="flash-crowd-demo")
    spec = DeepWalkSpec(max_length=20)
    rng = np.random.default_rng(4)
    candidates = np.nonzero(graph.degrees() > 0)[0]
    hot = rng.choice(candidates, size=8, replace=False)
    tenants = [
        TenantSpec("premium", weight=8,
                   queue_depth=4 * REQUESTS_PER_TENANT),
        # A shallow gate for the stressor: the burst must shed here, and
        # only here — premium rides out the crowd untouched.
        TenantSpec("besteffort", weight=1, queue_depth=16),
    ]
    config = ServeConfig(max_batch=32, max_wait_ms=2.0,
                         queue_depth=4 * REQUESTS_PER_TENANT)
    traces = [
        TenantTrace(
            "premium",
            rng.choice(hot, size=REQUESTS_PER_TENANT, replace=True),
            np.full(REQUESTS_PER_TENANT, 1e-4),
        ),
        TenantTrace(
            "besteffort",
            rng.choice(hot, size=REQUESTS_PER_TENANT, replace=True),
            flash_crowd_gaps(REQUESTS_PER_TENANT, 200000.0, seed=6),
        ),
    ]
    return graph, spec, tenants, config, traces


async def drive(graph, spec, tenants, config, traces):
    service = WalkService(graph, spec, engine="batch", seed=11, config=config,
                          tenants=tenants)
    async with service:
        reports = await run_tenant_traces(service, traces)
    return service, reports


def main() -> None:
    graph, spec, tenants, config, traces = build_workload()
    print(f"graph: {graph}")

    # Trace the whole run.  tracing() enables the global tracer for the
    # duration and restores the prior (disabled) state on exit; the
    # buffered spans survive the guard for export below.
    with tracing(capacity=200_000) as tracer:
        service, reports = asyncio.run(
            drive(graph, spec, tenants, config, traces)
        )

    print("\nper-tenant ledgers:")
    for tenant, ledger in service.tenant_stats.items():
        print(f"  {tenant:<10} offered {ledger.offered:>4}  "
              f"completed {ledger.completed:>4}  "
              f"dropped {ledger.dropped:>4}  failed {ledger.failed:>4}")

    # Export 1: the Chrome trace.  Every span the serve path recorded —
    # one per dispatcher turn, and the shed instants.
    events = write_chrome_trace(TRACE_OUT, tracer)
    print(f"\ntrace: {events} events ({tracer.dropped} dropped) "
          f"-> {TRACE_OUT}  (load at https://ui.perfetto.dev)")

    # Export 2: the Prometheus snapshot of the service's metrics.
    registry = service.snapshot_metrics()
    samples = write_prometheus(METRICS_OUT, registry)
    print(f"metrics: {samples} samples -> {METRICS_OUT}")

    # Verify: exported counters == in-memory ledgers, exactly, and the
    # accounting identity holds on the exported values per tenant.
    requests = registry.get("repro_serve_requests_total")
    for tenant, ledger in service.tenant_stats.items():
        exported = {
            outcome: requests.value(outcome=outcome, tenant=tenant)
            for outcome in ("completed", "dropped", "failed")
        }
        assert exported["completed"] == ledger.completed == reports[tenant].completed
        assert exported["dropped"] == ledger.dropped
        assert sum(exported.values()) == ledger.offered, tenant
    assert requests.value(outcome="dropped", tenant="besteffort") > 0, \
        "the flash crowd should have shed against the 16-deep gate"
    assert requests.value(outcome="dropped", tenant="premium") == 0, \
        "premium should ride out the crowd untouched"
    print("\nexported counters match the ledgers; "
          "offered == completed + dropped + failed per tenant  [OK]")

    # A taste of the exposition format.
    text = render_prometheus(registry)
    preview = [line for line in text.splitlines()
               if line.startswith("repro_serve_requests_total")]
    print("\nrequests_total series:")
    for line in preview:
        print(f"  {line}")


if __name__ == "__main__":
    main()
