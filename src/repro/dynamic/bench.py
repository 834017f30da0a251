"""Measurement harness shared by ``repro mutate-bench`` and
``benchmarks/bench_dynamic.py``.

One function drives a full update trace against a :class:`DynamicGraph`
and measures the three quantities the dynamic subsystem is judged on:

1. **updates/s** — streamed edge operations applied *and* published per
   second (delta application + incremental snapshot maintenance);
2. **maintenance speedup** — incremental per-batch maintenance vs the
   from-scratch rebuild a static pipeline would pay (``from_edges`` +
   the prepared arrays the walk's kernel reads, on the same logical edge
   set), sampled at a few points along the trace.  A snapshot maintains
   only what has been read, so the harness reads the same arrays at
   epoch 0: both sides then prepare exactly what the algorithm loads;
3. **walk-throughput retention** — hops/s of the batch engine on the
   final snapshot (kernel loaded from the snapshot's prepared state)
   relative to the same engine on a freshly built static graph, with
   paths and ``EngineStats`` required to be bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.dynamic.graph import DynamicGraph, GraphSnapshot
from repro.dynamic.state import SamplerState
from repro.dynamic.workload import UpdateTrace, apply_batch
from repro.engines import hops_per_second
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph
from repro.obs.metrics import dynamic_graph_into, global_registry
from repro.sampling.base import derive_seed
from repro.sampling.vectorized import make_kernel
from repro.walks.base import WalkSpec, make_queries
from repro.walks.batch import run_walks_batch
from repro.walks.reference import EngineStats


@dataclass
class MutateBenchReport:
    """Everything one trace run measured (JSON-ready plain fields)."""

    trace: str
    algorithm: str
    num_batches: int
    ops_applied: int
    final_epoch: int
    final_edges: int
    # Incremental maintenance (delta application + snapshot publication).
    incremental_seconds: float
    updates_per_second: float
    mean_snapshot_seconds: float
    # Compaction and delta-overlay accounting (DynamicGraph counters).
    compactions: int
    compaction_seconds: float
    updates_applied: int
    delta_edges: int
    delta_peak: int
    # Sampled from-scratch rebuild cost and the resulting speedup.
    full_rebuild_samples: int
    mean_full_rebuild_seconds: float
    maintenance_speedup: float
    # Walk-throughput retention on the final snapshot.
    dynamic_hops_per_second: float
    static_hops_per_second: float
    walk_retention: float
    snapshot_equivalent: bool

    def summary(self) -> str:
        lines = [
            f"trace:      {self.trace} ({self.num_batches} batches, "
            f"{self.ops_applied} edge ops, final |E| {self.final_edges}, "
            f"epoch {self.final_epoch})",
            f"updates:    {self.updates_per_second:,.0f} ops/s incremental "
            f"(mean snapshot {self.mean_snapshot_seconds * 1e3:.1f} ms)",
            f"compaction: {self.compactions} compactions, "
            f"{self.compaction_seconds:.3f}s total "
            f"({self.updates_applied} updates applied; "
            f"delta {self.delta_edges} final, {self.delta_peak} peak)",
            f"rebuild:    {self.mean_full_rebuild_seconds * 1e3:.1f} ms "
            f"from-scratch (x{self.full_rebuild_samples} samples) -> "
            f"incremental speedup {self.maintenance_speedup:.1f}x",
            f"retention:  {self.walk_retention:.3f}x walk throughput vs static "
            f"({self.dynamic_hops_per_second:,.0f} vs "
            f"{self.static_hops_per_second:,.0f} hops/s), "
            f"bit-identical={self.snapshot_equivalent}",
        ]
        return "\n".join(lines)


def rebuild_from_edge_set(
    edges: np.ndarray,
    weights: np.ndarray | None,
    num_vertices: int,
    name: str,
    kernel=None,
) -> tuple[CSRGraph, SamplerState]:
    """What a static pipeline rebuilds per update batch, given an edge
    set it already holds: a new CSR plus the prepared sampler structures
    ``kernel`` reads (every one of them without a kernel).  This — and
    only this — is the timed rebuild baseline; extracting the edge list
    out of the dynamic overlay (``logical_edges``) is a cost of *our*
    measurement harness, not of a static pipeline, and stays outside the
    timer."""
    rebuilt = from_edges(edges, num_vertices=num_vertices, weights=weights,
                         name=name)
    if kernel is None:
        return rebuilt, SamplerState.full_build(rebuilt)
    state = SamplerState(rebuilt)
    state.kernel_arrays(kernel)
    return rebuilt, state


def fresh_static_build(
    graph: DynamicGraph,
) -> tuple[CSRGraph, SamplerState]:
    """A from-scratch build of the dynamic graph's current edge set."""
    edges, weights = graph.logical_edges()
    return rebuild_from_edge_set(edges, weights, graph.num_vertices, graph.name)


def snapshot_matches_static(
    snapshot: GraphSnapshot, graph: CSRGraph, state: SamplerState
) -> bool:
    """Bit-exact comparison of a snapshot against a from-scratch build."""
    dynamic_graph = snapshot.graph
    pairs = [
        (dynamic_graph.row_ptr, graph.row_ptr),
        (dynamic_graph.col, graph.col),
    ]
    if dynamic_graph.is_weighted != graph.is_weighted:
        return False
    if dynamic_graph.is_weighted:
        pairs.append((dynamic_graph.weights, graph.weights))
    ours, theirs = snapshot.sampler_state.arrays(), state.arrays()
    pairs.extend((ours[name], theirs[name]) for name in theirs)
    return all(np.array_equal(a, b) for a, b in pairs)


def _timed_walks(
    graph: CSRGraph, spec: WalkSpec, queries, seed: int, kernel
) -> tuple[object, EngineStats, float]:
    stats = EngineStats()
    started = time.perf_counter()
    results = run_walks_batch(graph, spec, queries, seed=seed, stats=stats,
                              kernel=kernel)
    return results, stats, time.perf_counter() - started


def _stats_equal(a: EngineStats, b: EngineStats) -> bool:
    return (
        a.total_hops == b.total_hops
        and a.sampling_proposals == b.sampling_proposals
        and a.neighbor_reads == b.neighbor_reads
        and a.early_terminations == b.early_terminations
        and a.dangling_terminations == b.dangling_terminations
        and a.probabilistic_terminations == b.probabilistic_terminations
        and a.length_terminations == b.length_terminations
        and a.per_query_hops == b.per_query_hops
    )


def run_mutate_bench(
    trace: UpdateTrace,
    spec: WalkSpec,
    seed: int = 1,
    walk_queries: int = 512,
    full_rebuild_samples: int = 3,
    compaction_threshold: float = 0.25,
) -> MutateBenchReport:
    """Drive one update trace end to end and measure it (see module doc)."""
    dynamic = trace.build_dynamic(compaction_threshold=compaction_threshold)
    snapshot = dynamic.snapshot()
    # Epoch 0, untimed: the one cold build of what this walk's kernel
    # reads; every later epoch maintains exactly that.
    dynamic_kernel = make_kernel(spec.make_sampler())
    snapshot.kernel_arrays(dynamic_kernel)

    num_batches = len(trace.batches)
    sample_at = set()
    if num_batches and full_rebuild_samples > 0:
        count = min(full_rebuild_samples, num_batches)
        sample_at = {
            int(round(i * (num_batches - 1) / max(1, count - 1)))
            for i in range(count)
        }

    ops = 0
    incremental_seconds = 0.0
    snapshot_seconds = 0.0
    rebuild_seconds: list[float] = []
    compaction_base = dynamic.compaction_seconds
    for index, batch in enumerate(trace.batches):
        started = time.perf_counter()
        apply_batch(dynamic, batch)
        mid = time.perf_counter()
        snapshot = dynamic.snapshot()
        finished = time.perf_counter()
        incremental_seconds += finished - started
        snapshot_seconds += finished - mid
        ops += batch.num_ops
        if index in sample_at:
            # Extract the edge set untimed (a static pipeline already
            # holds its edges); time only the rebuild itself.
            edges, weights = dynamic.logical_edges()
            rebuild_started = time.perf_counter()
            rebuild_from_edge_set(edges, weights, dynamic.num_vertices,
                                  dynamic.name, dynamic_kernel)
            rebuild_seconds.append(time.perf_counter() - rebuild_started)

    mean_incremental = incremental_seconds / num_batches if num_batches else 0.0
    mean_rebuild = float(np.mean(rebuild_seconds)) if rebuild_seconds else 0.0
    speedup = (
        mean_rebuild / mean_incremental
        if mean_incremental > 0 and mean_rebuild > 0
        else float("inf")
    )

    # Feed the telemetry layer once per run so `repro metrics
    # mutate-bench ...` exports the dynamic-graph counters — before the
    # equivalence check below asks the last snapshot for every member,
    # so the build ledger shows what the trace itself maintained.
    dynamic_graph_into(global_registry(), dynamic)

    # Final-state equivalence + walk-throughput retention.
    static_graph, static_state = fresh_static_build(dynamic)
    equivalent = snapshot_matches_static(snapshot, static_graph, static_state)

    queries = make_queries(static_graph, walk_queries,
                           seed=derive_seed(seed, "queries"))
    walk_seed = derive_seed(seed, "engine")
    arrays = snapshot.kernel_arrays(dynamic_kernel)
    if arrays:
        dynamic_kernel.load_state(arrays)
    else:
        dynamic_kernel.prepare(snapshot.graph)
    static_kernel = make_kernel(spec.make_sampler())
    static_kernel.prepare(static_graph)
    dynamic_results, dynamic_stats, dynamic_s = _timed_walks(
        snapshot.graph, spec, queries, walk_seed, dynamic_kernel
    )
    static_results, static_stats, static_s = _timed_walks(
        static_graph, spec, queries, walk_seed, static_kernel
    )
    equivalent = (
        equivalent
        and _stats_equal(dynamic_stats, static_stats)
        and all(
            np.array_equal(a, b)
            for a, b in zip(dynamic_results.paths, static_results.paths)
        )
    )
    dynamic_rate = hops_per_second(dynamic_stats.total_hops, dynamic_s)
    static_rate = hops_per_second(static_stats.total_hops, static_s)

    return MutateBenchReport(
        trace=trace.name,
        algorithm=spec.name,
        num_batches=num_batches,
        ops_applied=ops,
        final_epoch=dynamic.epoch,
        final_edges=dynamic.num_edges,
        incremental_seconds=incremental_seconds,
        updates_per_second=(
            ops / incremental_seconds if incremental_seconds > 0 else float("inf")
        ),
        mean_snapshot_seconds=(
            snapshot_seconds / num_batches if num_batches else 0.0
        ),
        compactions=dynamic.compactions,
        compaction_seconds=dynamic.compaction_seconds - compaction_base,
        updates_applied=dynamic.updates_applied,
        delta_edges=dynamic.delta_edges,
        delta_peak=dynamic.delta_peak,
        full_rebuild_samples=len(rebuild_seconds),
        mean_full_rebuild_seconds=mean_rebuild,
        maintenance_speedup=speedup,
        dynamic_hops_per_second=dynamic_rate,
        static_hops_per_second=static_rate,
        walk_retention=(
            dynamic_rate / static_rate if static_rate > 0 else float("inf")
        ),
        snapshot_equivalent=bool(equivalent),
    )
