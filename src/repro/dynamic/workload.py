"""Update-workload generators for the dynamic-graph benchmarks.

Three trace families cover the update patterns the dynamic-graph
literature (LightRW, FlexiWalker) evaluates against, all derived
deterministically from an RMAT edge stream:

* **grow-only** — the graph starts from a prefix of the edge stream and
  the remainder arrives in insert-only batches (social-graph ingestion).
* **sliding-window** — a fixed-size window slides over the stream: every
  batch inserts the next chunk and retires the oldest (interaction
  graphs with TTL'd edges).  This is the acceptance trace: it exercises
  insert *and* delete paths and keeps the edge count stable, so
  maintenance cost per batch is comparable across the trace.
* **weight-churn** — the topology is fixed and batches re-draw the
  weights of random edge subsets (recommender feedback loops); only
  weighted samplers' state is invalidated.

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

#: Trace kinds accepted by :func:`make_trace` (and the CLI's --trace).
TRACE_KINDS = ("grow", "window", "churn")

_WEIGHT_LOW, _WEIGHT_HIGH = 0.5, 2.0

#: ``SeedSequence((seed, tag))`` stream tags: arrival order/weights vs
#: churn re-draws must be independent children of the trace seed (RW102
#: — the historical ``seed + 1`` / ``seed + 2`` offsets could collide
#: with each other across call sites).
_STREAM_TAG_ARRIVALS = 1
_STREAM_TAG_CHURN = 2


def _stream_rng(seed: int, tag: int) -> np.random.Generator:
    """A ``SeedSequence((seed, tag))``-rooted generator for one trace
    sub-stream."""
    sequence = np.random.SeedSequence((normalize_seed(seed), tag))
    return np.random.default_rng(sequence)


@dataclass(frozen=True)
class UpdateBatch:
    """One streamed delta: inserts, deletions and re-weights."""

    add: np.ndarray
    add_weights: np.ndarray | None
    remove: np.ndarray
    reweight: np.ndarray
    reweight_weights: np.ndarray | None

    @property
    def num_ops(self) -> int:
        """Edge operations this batch applies."""
        return int(self.add.shape[0] + self.remove.shape[0] + self.reweight.shape[0])


@dataclass(frozen=True)
class UpdateTrace:
    """A reproducible update workload over a fixed vertex set."""

    name: str
    num_vertices: int
    base_edges: np.ndarray
    base_weights: np.ndarray | None
    batches: list[UpdateBatch] = field(default_factory=list)

    @property
    def total_ops(self) -> int:
        return sum(batch.num_ops for batch in self.batches)

    def build_dynamic(self, **kwargs) -> DynamicGraph:
        """The starting :class:`DynamicGraph` this trace's batches mutate."""
        base = from_edges(
            self.base_edges,
            num_vertices=self.num_vertices,
            weights=self.base_weights,
            name=self.name,
        )
        return DynamicGraph(base, **kwargs)

    def final_edges(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The edge set after every batch as ``(edges, weights)``, sorted
        by ``(src, dst)``: each op replayed into a plain dict, sharing no
        code with the dynamic graph's overlay, merge or snapshots."""
        edges = dict(_keyed(self.base_edges, self.base_weights))
        for batch in self.batches:
            edges.update(_keyed(batch.add, batch.add_weights))
            for edge in map(tuple, batch.remove.tolist()):
                del edges[edge]
            edges.update(_keyed(batch.reweight, batch.reweight_weights))
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
    if batch.reweight.shape[0]:
        graph.update_weights(batch.reweight, batch.reweight_weights)


def _empty_edges() -> np.ndarray:
    return np.empty((0, 2), dtype=np.int64)


def _edge_stream(
    scale: int, edge_factor: int, seed: int, weighted: bool
) -> tuple[int, np.ndarray, np.ndarray | None]:
    """A deduplicated RMAT edge list in a seeded random arrival order."""
    graph = rmat(scale, edge_factor=edge_factor, seed=seed)
    sources = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.degrees()
    )
    rng = _stream_rng(seed, _STREAM_TAG_ARRIVALS)
    # Endpoint rows, viewed as (m, 2) pairs: ``from_edges`` reads each
    # column of a slice of it without a copy.
    edges = np.stack([sources, graph.col])[:, rng.permutation(graph.num_edges)].T
    weights = (
        rng.uniform(_WEIGHT_LOW, _WEIGHT_HIGH, size=edges.shape[0])
        if weighted
        else None
    )
    return graph.num_vertices, edges, weights


def _insert_batch(edges: np.ndarray, weights: np.ndarray | None) -> UpdateBatch:
    return UpdateBatch(
        add=edges,
        add_weights=weights,
        remove=_empty_edges(),
        reweight=_empty_edges(),
        reweight_weights=None,
    )


def grow_only_trace(
    scale: int,
    edge_factor: int = 8,
    base_fraction: float = 0.5,
    batch_size: int = 1000,
    num_batches: int | None = None,
    weighted: bool = True,
    seed: int = 0,
) -> UpdateTrace:
    """Insert-only stream: the graph grows from a prefix of the edge set."""
    if not 0 < base_fraction < 1:
        raise DynamicGraphError(
            f"base_fraction must be in (0, 1), got {base_fraction}"
        )
    num_vertices, edges, weights = _edge_stream(scale, edge_factor, seed, weighted)
    split = max(1, int(edges.shape[0] * base_fraction))
    batches: list[UpdateBatch] = []
    cursor = split
    while cursor < edges.shape[0]:
        if num_batches is not None and len(batches) >= num_batches:
            break
        upper = min(cursor + batch_size, edges.shape[0])
        batches.append(
            _insert_batch(
                edges[cursor:upper],
                None if weights is None else weights[cursor:upper],
            )
        )
        cursor = upper
    return UpdateTrace(
        name=f"grow-rmat{scale}",
        num_vertices=num_vertices,
        base_edges=edges[:split],
        base_weights=None if weights is None else weights[:split],
        batches=batches,
    )


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
                reweight=_empty_edges(),
                reweight_weights=None,
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


def weight_churn_trace(
    scale: int,
    edge_factor: int = 8,
    batch_size: int = 1000,
    num_batches: int = 20,
    seed: int = 0,
) -> UpdateTrace:
    """Fixed topology, churning weights: each batch re-draws the weights
    of a random edge subset (always a weighted trace)."""
    num_vertices, edges, weights = _edge_stream(scale, edge_factor, seed, True)
    rng = _stream_rng(seed, _STREAM_TAG_CHURN)
    batches: list[UpdateBatch] = []
    for _ in range(num_batches):
        size = min(batch_size, edges.shape[0])
        picked = rng.choice(edges.shape[0], size=size, replace=False)
        batches.append(
            UpdateBatch(
                add=_empty_edges(),
                add_weights=None,
                remove=_empty_edges(),
                reweight=edges[picked],
                reweight_weights=rng.uniform(_WEIGHT_LOW, _WEIGHT_HIGH, size=size),
            )
        )
    return UpdateTrace(
        name=f"churn-rmat{scale}",
        num_vertices=num_vertices,
        base_edges=edges,
        base_weights=weights,
        batches=batches,
    )


def make_trace(kind: str, scale: int, **kwargs) -> UpdateTrace:
    """Build one trace by kind name (the CLI and benchmark entry point)."""
    if kind == "grow":
        return grow_only_trace(scale, **kwargs)
    if kind == "window":
        return sliding_window_trace(scale, **kwargs)
    if kind == "churn":
        kwargs.pop("weighted", None)
        return weight_churn_trace(scale, **kwargs)
    raise DynamicGraphError(
        f"unknown trace kind {kind!r}; expected one of {TRACE_KINDS}"
    )
