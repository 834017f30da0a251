"""Dynamic-graph subsystem: streamed updates, versioned snapshots, serving.

``DynamicGraph`` ingests streamed edge updates into per-vertex delta
buffers over the last snapshot's CSR and publishes epoch-versioned
immutable snapshots, each of which becomes the next base —
``(CSRGraph, SamplerState)`` pairs whose prepared sampler structures are
built when first read and from then on maintained *incrementally* yet
bit-identically to a from-scratch build; what nobody reads is not built.
Engines swap between snapshots without cold preparation
(``PreparedEngine.swap_snapshot``).
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
    UpdateBatch,
    UpdateTrace,
    apply_batch,
    sliding_window_trace,
)

__all__ = [
    "DynamicGraph",
    "GraphSnapshot",
    "MutateBenchReport",
    "RowBatch",
    "SamplerState",
    "UpdateBatch",
    "UpdateTrace",
    "advance_graph_and_state",
    "apply_batch",
    "fresh_static_build",
    "run_mutate_bench",
    "sliding_window_trace",
    "snapshot_matches_static",
]
