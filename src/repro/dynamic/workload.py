"""The update workload of the dynamic-graph benchmarks.

A **sliding window** over a deterministic RMAT edge stream: every batch
inserts the next chunk and retires the oldest (interaction graphs with
TTL'd edges).  It exercises the insert *and* delete paths and keeps the
edge count stable, so maintenance cost per batch is comparable across
the trace.

A trace is a plain value: the base edge set plus a list of
:class:`UpdateBatch` deltas.  ``UpdateTrace.build_dynamic()`` creates the
starting :class:`~repro.dynamic.graph.DynamicGraph`, and
:func:`apply_batch` applies one delta — the benchmark and CLI drive the
same objects the tests replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.dynamic.graph import DynamicGraph
from repro.errors import DynamicGraphError
from repro.graph.builders import from_edges
from repro.graph.generators import rmat
from repro.sampling.base import normalize_seed

_WEIGHT_LOW, _WEIGHT_HIGH = 0.5, 2.0

#: ``SeedSequence((seed, tag))`` stream tag of the arrival order and
#: weights: a child of the trace seed (RW102), never an offset of it.
_STREAM_TAG_ARRIVALS = 1


@dataclass(frozen=True)
class UpdateBatch:
    """One streamed delta: inserts, then deletions."""

    add: np.ndarray
    add_weights: np.ndarray | None
    remove: np.ndarray

    @property
    def num_ops(self) -> int:
        """Edge operations this batch applies."""
        return int(self.add.shape[0] + self.remove.shape[0])


@dataclass(frozen=True)
class UpdateTrace:
    """A reproducible update workload over a fixed vertex set."""

    name: str
    num_vertices: int
    base_edges: np.ndarray
    base_weights: np.ndarray | None
    batches: list[UpdateBatch] = field(default_factory=list)

    def build_dynamic(self) -> DynamicGraph:
        """The starting :class:`DynamicGraph` this trace's batches mutate."""
        base = from_edges(
            self.base_edges,
            num_vertices=self.num_vertices,
            weights=self.base_weights,
            name=self.name,
        )
        return DynamicGraph(base)

    def final_edges(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The edge set after every batch as ``(edges, weights)``, sorted
        by ``(src, dst)``: each op replayed into a plain dict, sharing no
        code with the dynamic graph's overlay, merge or snapshots."""
        edges = dict(_keyed(self.base_edges, self.base_weights))
        for batch in self.batches:
            edges.update(_keyed(batch.add, batch.add_weights))
            for edge in map(tuple, batch.remove.tolist()):
                del edges[edge]
        ordered = sorted(edges)
        array = np.array(ordered, dtype=np.int64).reshape(-1, 2)
        if self.base_weights is None:
            return array, None
        return array, np.array([edges[edge] for edge in ordered], dtype=np.float64)


def _keyed(edges: np.ndarray, weights: np.ndarray | None):
    """``((src, dst), weight)`` pairs of one op list (1.0 when unweighted)."""
    keys = map(tuple, edges.tolist())
    return zip(keys, repeat(1.0) if weights is None else weights.tolist())


def apply_batch(graph: DynamicGraph, batch: UpdateBatch) -> None:
    """Apply one trace delta to a dynamic graph."""
    if batch.add.shape[0]:
        graph.add_edges(batch.add, weights=batch.add_weights)
    if batch.remove.shape[0]:
        graph.remove_edges(batch.remove)


def _edge_stream(
    scale: int, edge_factor: int, seed: int, weighted: bool
) -> tuple[int, np.ndarray, np.ndarray | None]:
    """A deduplicated RMAT edge list in a seeded random arrival order."""
    graph = rmat(scale, edge_factor=edge_factor, seed=seed)
    sources = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.degrees()
    )
    rng = np.random.default_rng(
        np.random.SeedSequence((normalize_seed(seed), _STREAM_TAG_ARRIVALS)))
    # Endpoint rows, viewed as (m, 2) pairs: ``from_edges`` reads each
    # column of a slice of it without a copy.
    edges = np.stack([sources, graph.col])[:, rng.permutation(graph.num_edges)].T
    weights = (
        rng.uniform(_WEIGHT_LOW, _WEIGHT_HIGH, size=edges.shape[0])
        if weighted
        else None
    )
    return graph.num_vertices, edges, weights


def sliding_window_trace(
    scale: int,
    edge_factor: int = 8,
    window_fraction: float = 0.5,
    batch_size: int = 1000,
    num_batches: int | None = None,
    weighted: bool = True,
    seed: int = 0,
) -> UpdateTrace:
    """Fixed-size window over the edge stream: each batch inserts the next
    chunk and removes the oldest, keeping |E| (nearly) constant."""
    if not 0 < window_fraction < 1:
        raise DynamicGraphError(
            f"window_fraction must be in (0, 1), got {window_fraction}"
        )
    num_vertices, edges, weights = _edge_stream(scale, edge_factor, seed, weighted)
    window = max(batch_size, int(edges.shape[0] * window_fraction))
    batches: list[UpdateBatch] = []
    head = window  # next stream position to insert
    tail = 0  # oldest stream position still in the window
    while head < edges.shape[0]:
        if num_batches is not None and len(batches) >= num_batches:
            break
        upper = min(head + batch_size, edges.shape[0])
        grown = upper - head
        batches.append(
            UpdateBatch(
                add=edges[head:upper],
                add_weights=None if weights is None else weights[head:upper],
                remove=edges[tail : tail + grown],
            )
        )
        head = upper
        tail += grown
    return UpdateTrace(
        name=f"window-rmat{scale}",
        num_vertices=num_vertices,
        base_edges=edges[:window],
        base_weights=None if weights is None else weights[:window],
        batches=batches,
    )
