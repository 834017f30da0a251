"""Async walk-serving layer: open-queue ingest over the prepared engines.

``WalkService`` seats individual walk requests into the frontier its
engine opens and steps it once per event-loop turn (one dispatcher, no
thread, no coalescing wait); admission control sheds past the
high-water mark the caller passes (``ServeConfig.queue_depth``);
``ServeStats`` records tail latency, admission-group shape, and
sustained throughput.  On top of that, ``TenantSpec``/``TenantScheduler``
give the service per-tenant admission classes with weighted-priority
dispatch (a flooding tenant sheds its own traffic, not its neighbors'
SLOs).  The service is a scheduling layer only — per-request determinism
(each query's own ``(seed, query_id)`` stream) survives any step composition and
any tenant interleaving, and every response replays offline
(``replay_paths``).
"""

from repro.serve.admission import AdmissionGate
from repro.serve.qos import DEFAULT_TENANT, TenantScheduler, TenantSpec
from repro.serve.service import ServeConfig, WalkService, replay_paths
from repro.serve.stats import ServeStats
from repro.serve.workload import (
    SCENARIOS,
    OpenLoopReport,
    TenantTrace,
    arrival_gaps,
    flash_crowd_gaps,
    run_open_loop,
    run_tenant_traces,
    scenario_gaps,
)

__all__ = [
    "AdmissionGate",
    "DEFAULT_TENANT",
    "OpenLoopReport",
    "SCENARIOS",
    "ServeConfig",
    "ServeStats",
    "TenantScheduler",
    "TenantSpec",
    "TenantTrace",
    "WalkService",
    "arrival_gaps",
    "flash_crowd_gaps",
    "replay_paths",
    "run_open_loop",
    "run_tenant_traces",
    "scenario_gaps",
]
