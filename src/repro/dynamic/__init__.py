"""Dynamic-graph subsystem: streamed updates, versioned snapshots, serving.

``DynamicGraph`` ingests streamed edge updates into per-vertex delta
buffers over the last snapshot's CSR (compacting once the deltas since
that snapshot exceed a threshold) and publishes epoch-versioned
immutable snapshots —
``(CSRGraph, SamplerState)`` pairs whose prepared sampler structures are
built when first read and from then on maintained *incrementally* yet
bit-identically to a from-scratch build; what nobody reads is not built.
Engines swap between snapshots without cold preparation
(``PreparedEngine.swap_snapshot``), and the async ``WalkService`` applies
swaps on epoch boundaries (``WalkService.update_graph``) so in-flight
requests finish on the version they started on.
"""

from repro.dynamic.bench import (
    MutateBenchReport,
    fresh_static_build,
    run_mutate_bench,
    snapshot_matches_static,
)
from repro.dynamic.graph import DynamicGraph, GraphSnapshot
from repro.dynamic.state import RowBatch, SamplerState, advance_graph_and_state
from repro.dynamic.workload import (
    TRACE_KINDS,
    UpdateBatch,
    UpdateTrace,
    apply_batch,
    grow_only_trace,
    make_trace,
    sliding_window_trace,
    weight_churn_trace,
)

__all__ = [
    "DynamicGraph",
    "GraphSnapshot",
    "MutateBenchReport",
    "RowBatch",
    "SamplerState",
    "TRACE_KINDS",
    "UpdateBatch",
    "UpdateTrace",
    "advance_graph_and_state",
    "apply_batch",
    "fresh_static_build",
    "grow_only_trace",
    "make_trace",
    "run_mutate_bench",
    "sliding_window_trace",
    "snapshot_matches_static",
    "weight_churn_trace",
]
