"""Async walk-serving layer: open-queue ingest over the prepared engines.

``WalkService`` seats individual walk requests into the frontier its
engine opens and steps it once per event-loop turn (one dispatcher, no
thread, no coalescing wait); admission control sheds past the
high-water mark the caller passes (``ServeConfig.queue_depth``);
``ServeStats`` records tail latency, admission-group shape, and
sustained throughput.  On top of that, ``TenantSpec``/``TenantScheduler``
give the service per-tenant admission classes with weighted-priority
dispatch (a flooding tenant sheds its own traffic, not its neighbors'
SLOs), and ``HotWalkCache``
serves repeated query-id-independent requests from epoch-keyed,
pre-generated walk pools.  The service is a scheduling layer only —
per-request determinism (``SeedSequence((seed, query_id))``) survives
any step composition, any tenant interleaving, and any cache hit.
"""

from repro.serve.admission import AdmissionGate
from repro.serve.cache import POOL_ID_BASE, HotWalkCache, ServedWalk
from repro.serve.qos import DEFAULT_TENANT, TenantScheduler, TenantSpec
from repro.serve.service import ServeConfig, WalkService, replay_paths
from repro.serve.stats import ServeStats
from repro.serve.workload import (
    SCENARIOS,
    OpenLoopReport,
    TenantTrace,
    arrival_gaps,
    diurnal_gaps,
    flash_crowd_gaps,
    hub_hammer_starts,
    run_open_loop,
    run_tenant_traces,
    scenario_gaps,
)

__all__ = [
    "AdmissionGate",
    "DEFAULT_TENANT",
    "HotWalkCache",
    "OpenLoopReport",
    "POOL_ID_BASE",
    "SCENARIOS",
    "ServeConfig",
    "ServeStats",
    "ServedWalk",
    "TenantScheduler",
    "TenantSpec",
    "TenantTrace",
    "WalkService",
    "arrival_gaps",
    "diurnal_gaps",
    "flash_crowd_gaps",
    "hub_hammer_starts",
    "replay_paths",
    "run_open_loop",
    "run_tenant_traces",
    "scenario_gaps",
]
