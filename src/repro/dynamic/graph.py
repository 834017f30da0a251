"""Versioned mutable graph: streamed updates and snapshots.

:class:`DynamicGraph` is the write side of the dynamic subsystem.  It
holds an immutable CSR **base** plus per-vertex **delta buffers**: each
touched vertex carries a small override map of *changes* against its
base row — inserted (or re-weighted) edges and tombstones for removed
base edges — so a streamed ``add_edges`` / ``remove_edges`` op costs one
dictionary write plus one O(log d) adjacency probe, independent of the
vertex's degree (touching an RMAT hub must not copy its whole neighbor
list).  The base is the latest
published snapshot's CSR: every snapshot adopts its own graph as the
next base and empties the overlay, so the overlay only ever holds the
ops since the last epoch and a superseded epoch is freed once its last
reader lets go.  Only a snapshot moves the base: a caller bounds overlay
memory and the next snapshot's merge cost by how often it publishes.

The read side is :meth:`DynamicGraph.snapshot`: an epoch-versioned,
immutable ``CSRGraph`` whose sampler state comes pre-seeded.  Snapshots
are built *incrementally* from the previous epoch — only rows dirtied
since the last snapshot are rebuilt, and the prepared arrays some reader
of an earlier epoch's graph read are carried into the new one (see
:mod:`repro.dynamic.state`) — and are bit-identical to a from-scratch
build of the same logical edge set.  Engines keep walking one epoch
while updates stream into the next; swapping an engine onto a new epoch
is ``PreparedEngine.swap_snapshot``, and it builds nothing.

Model notes: the vertex set is fixed at construction; the graph is
simple (at most one directed edge per ``(src, dst)`` — a duplicate
insert updates the weight in place); MetaPath's edge/vertex types are
not supported.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from repro.dynamic.state import RowBatch, _assemble_csr, advance_graph_and_state
from repro.errors import DynamicGraphError
from repro.graph.builders import validate_edge_weights
from repro.graph.csr import CSRGraph
from repro.graph.rows import gather_rows, stable_order
from repro.obs.trace import span as _trace_span
from repro.sampling.vectorized import SamplerState

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.float64
#: A removed *base* edge's delta value: one NaN object, known by identity.
_TOMBSTONE = float("nan")


@dataclass(frozen=True, eq=False)
class GraphSnapshot:
    """One published graph version, immutable.

    ``epoch`` is a monotonically increasing version id (0 is the
    construction-time state).  ``graph`` is a plain ``CSRGraph`` every
    engine already understands; its :attr:`sampler_state` holds the
    prepared arrays (alias slots, edge set) readers of earlier epochs
    read, so a swap onto this snapshot needs no preparation pass.
    """

    epoch: int
    graph: CSRGraph

    @property
    def sampler_state(self) -> SamplerState:
        """The graph's one sampler state."""
        return SamplerState.of(self.graph)


def _as_edge_array(edges) -> tuple[np.ndarray, np.ndarray]:
    array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if array.size == 0:
        array = array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise DynamicGraphError("edges must be a sequence of (src, dst) pairs")
    return array[:, 0].astype(_INDEX_DTYPE), array[:, 1].astype(_INDEX_DTYPE)


class DynamicGraph:
    """A mutable directed graph serving immutable versioned snapshots.

    Parameters
    ----------
    base:
        Starting graph (epoch 0).  Must have sorted neighbor lists (every
        builder in :mod:`repro.graph.builders` produces them) and no
        edge/vertex types.  Weightedness is fixed for the graph's
        lifetime: updates to a weighted base must carry weights, updates
        to an unweighted base must not.
    """

    def __init__(self, base: CSRGraph) -> None:
        if base.edge_types is not None or base.vertex_types is not None:
            raise DynamicGraphError(
                "dynamic graphs do not support edge/vertex types (MetaPath "
                "schemas); use a plain weighted or unweighted graph"
            )
        if not base.cols_sorted:
            raise DynamicGraphError(
                "dynamic graphs require sorted neighbor lists; rebuild the "
                "base with from_edges(..., sort_neighbors=True)"
            )
        self._base = base
        self._weighted = base.is_weighted
        #: Per-vertex delta buffers, relative to the current base (the
        #: last published epoch):
        #: ``vertex -> {dst: weight}``.  A weight is an inserted or
        #: re-weighted edge (1.0 on unweighted graphs); ``_TOMBSTONE``
        #: marks a removed *base* edge (removing an edge that only
        #: ever lived in the delta just deletes its entry).
        self._adj: dict[int, dict[int, float]] = {}
        #: Vertices whose rows changed since the last published snapshot.
        self._dirty: set[int] = set()
        self._num_edges = base.num_edges
        self._delta_entries = 0
        self._epoch = 0
        self._published: GraphSnapshot | None = None
        self.updates_applied = 0
        # Nothing compacts; only the frozen benchmarks/suite still reads these.
        self.compactions, self.compaction_seconds = 0, 0.0
        #: High-water mark of :attr:`delta_edges`: the largest overlay
        #: between two snapshots (reported by mutate-bench).
        self.delta_peak = 0
        #: Sampler-state builds, ``(member, "scratch" | "incremental") -> count``:
        #: the base graph's ledger, which every epoch's state shares.
        self.state_builds = SamplerState.of(base).builds

    # ------------------------------------------------------------------
    # Read API (current logical graph, base + overlay)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._base.num_vertices

    @property
    def num_edges(self) -> int:
        """Edge count of the current logical graph (overlay included)."""
        return self._num_edges

    @property
    def name(self) -> str:
        return self._base.name

    @property
    def epoch(self) -> int:
        """Epoch of the most recently published snapshot."""
        return self._epoch

    @property
    def delta_edges(self) -> int:
        """Entries currently held in the per-vertex delta buffers: the
        ops since the last snapshot (0 right after one)."""
        return self._delta_entries

    def logical_edges(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The full current edge set as ``(edges, weights)``, sorted by
        ``(src, dst)`` — what a from-scratch rebuild would ingest."""
        graph = self._merged_csr()
        sources = np.repeat(
            np.arange(graph.num_vertices, dtype=_INDEX_DTYPE), graph.degrees()
        )
        return np.stack([sources, graph.col], axis=1), graph.weights

    # ------------------------------------------------------------------
    # Write API (streamed updates)
    # ------------------------------------------------------------------
    def add_edges(
        self, edges, weights: Sequence[float] | np.ndarray | None = None
    ) -> int:
        """Insert directed edges; returns how many were *new*.

        A duplicate ``(src, dst)`` updates the edge's weight in place
        (no-op on unweighted graphs) — the graph stays simple.  Weighted
        graphs require aligned ``weights``; unweighted graphs reject
        them.  Edges apply in order; an invalid edge raises
        :class:`~repro.errors.DynamicGraphError` and leaves earlier edges
        of the call applied.
        """
        src, dst, weight_array = self._check_update(edges, weights, need_weights=True)
        inserted = 0
        for s, d, w, in_base in zip(*self._ops(src, dst, weight_array)):
            delta = self._delta(s)
            if d in delta:
                present = delta[d] is not _TOMBSTONE
            else:
                present = in_base
                self._delta_entries += 1
            if not present:
                inserted += 1
                self._num_edges += 1
            delta[d] = w
            self._dirty.add(s)
        self.updates_applied += src.size
        self._note_delta_peak()
        return inserted

    def remove_edges(self, edges) -> None:
        """Delete directed edges; a missing edge is an error.

        Edges apply in order (so removing a vertex's whole neighborhood
        in one call is fine, and its degree drops to 0).
        """
        src, dst, _ = self._check_update(edges, None, need_weights=False)
        for s, d, _, in_base in zip(*self._ops(src, dst, None)):
            delta = self._delta(s)
            in_delta = d in delta
            present = delta[d] is not _TOMBSTONE if in_delta else in_base
            if not present:
                raise DynamicGraphError(
                    f"cannot remove edge {s} -> {d}: it does not exist"
                )
            if in_base:
                # Tombstone the base edge (a new entry unless the delta
                # already overrode this destination).
                if not in_delta:
                    self._delta_entries += 1
                delta[d] = _TOMBSTONE
            else:
                # The edge lives only in the delta: drop its entry.
                del delta[d]
                self._delta_entries -= 1
            self._num_edges -= 1
            self._dirty.add(s)
        self.updates_applied += src.size
        self._note_delta_peak()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> GraphSnapshot:
        """Publish the current logical graph as an immutable epoch.

        With no pending updates this returns the cached snapshot (same
        object, same epoch).  Otherwise a new epoch is built
        incrementally from the previous one: dirty rows are rebuilt,
        clean rows copied bit-for-bit, in the graph arrays, and every
        prepared array a reader has read from the previous epoch's
        ``sampler_state`` is carried into the new one — what nobody reads
        is never built (see
        :func:`repro.dynamic.state.advance_graph_and_state`).
        The new epoch's graph then becomes the base and the overlay is
        emptied: reads, :meth:`logical_edges` and the next snapshot's
        merge start from this epoch, and the previous one is no longer
        referenced here.
        """
        previous = self._published
        if previous is None:
            previous = GraphSnapshot(epoch=self._epoch, graph=self._base)
            self._published = previous
        if not self._dirty:
            return previous
        with _trace_span("dynamic.snapshot", epoch=self._epoch + 1,
                         dirty_rows=len(self._dirty)) as snapshot_span:
            with _trace_span("dynamic.merge"):
                batch = self._merged_rows(self._dirty)
            snapshot_span.annotate(dirty_edges=int(batch.col.size))
            graph, state = advance_graph_and_state(
                previous.graph, batch, name=self._base.name
            )
            if state.held:  # what this epoch carried; absent when nothing
                snapshot_span.annotate(members=sorted(state.held))
            self._epoch += 1
            snapshot = GraphSnapshot(epoch=self._epoch, graph=graph)
            self._published = snapshot
            self._dirty.clear()
            # The new epoch is the next base: the overlay only ever holds
            # the ops since the last snapshot, and no superseded epoch
            # stays pinned here.
            self._base = graph
            self._adj.clear()
            self._delta_entries = 0
        return snapshot

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise DynamicGraphError(
                f"vertex {vertex} out of range for graph with "
                f"{self.num_vertices} vertices"
            )

    def _check_update(
        self, edges, weights, need_weights: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        src, dst = _as_edge_array(edges)
        n = self.num_vertices
        if src.size and (
            src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n
        ):
            bad = np.nonzero((src < 0) | (dst < 0) | (src >= n) | (dst >= n))[0][0]
            raise DynamicGraphError(
                f"edge {int(src[bad])} -> {int(dst[bad])} out of range for "
                f"graph with {n} vertices (the vertex set is fixed at "
                f"construction)"
            )
        weight_array = None
        if need_weights and self._weighted:
            if weights is None:
                raise DynamicGraphError(
                    "updates to a weighted dynamic graph must carry weights"
                )
            weight_array = np.asarray(weights, dtype=_WEIGHT_DTYPE)
            if weight_array.shape != src.shape:
                raise DynamicGraphError("weights must align with edges")
            validate_edge_weights(weight_array, src, dst)
        elif weights is not None:
            raise DynamicGraphError(
                "unweighted dynamic graphs do not accept edge weights"
            )
        return src, dst, weight_array

    def _ops(self, src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None):
        """One call's ops as ``(src, dst, weight, in base)`` columns.  The
        base only changes at a snapshot, never inside a call, so
        membership is one row-bounded binary search over all ops at
        once."""
        row_ptr, col = self._base.row_ptr, self._base.col
        lo, stop = row_ptr[src], row_ptr[src + 1]
        hi = stop
        for _ in range(int((stop - lo).max(initial=0)).bit_length()):
            mid = (lo + hi) >> 1
            below = (mid < hi) & (col[np.minimum(mid, col.size - 1)] < dst)
            lo, hi = np.where(below, mid + 1, lo), np.where(below, hi, mid)
        in_base = np.zeros(src.size, dtype=bool)
        found = np.flatnonzero(lo < stop)
        in_base[found] = col[lo[found]] == dst[found]
        weight = repeat(1.0) if weights is None else weights.tolist()
        return src.tolist(), dst.tolist(), weight, in_base.tolist()

    def _delta(self, vertex: int) -> dict[int, float]:
        """The (possibly empty, created on demand) delta buffer of one
        vertex.  O(1): never copies the base row."""
        delta = self._adj.get(vertex)
        if delta is None:
            delta = {}
            self._adj[vertex] = delta
        return delta

    def _merged_csr(self) -> CSRGraph:
        """The current logical graph as one CSR: untouched rows straight
        from the base, touched rows from :meth:`_merged_rows`."""
        touched = [vertex for vertex, delta in self._adj.items() if delta]
        if not touched:
            return self._base
        graph, _, _ = _assemble_csr(
            self._base, self._merged_rows(touched), self._base.name
        )
        return graph

    def _merged_rows(self, vertices) -> RowBatch:
        """The full current rows of ``vertices`` as one flat batch.

        One vectorized merge: the base rows are gathered, the vertices'
        delta entries appended after them, and the
        :func:`~repro.graph.rows.stable_order` of ``row * |V| + dst``
        brings each destination's base and delta entries together with
        the delta last — the last writer wins, and a winning tombstone
        drops the edge.  O(rows + their edges) array
        work however many rows there are; never on the streamed-update
        path.
        """
        n = self.num_vertices
        vertices = np.array(sorted(vertices), dtype=_INDEX_DTYPE)
        positions, base_ptr = gather_rows(self._base.row_ptr, vertices)
        no_delta: dict[int, float] = {}
        deltas = [self._adj.get(vertex, no_delta) for vertex in vertices.tolist()]
        delta_sizes = [len(delta) for delta in deltas]
        batch_row = np.arange(vertices.size, dtype=_INDEX_DTYPE)
        rows = np.concatenate((
            np.repeat(batch_row, np.diff(base_ptr)),
            np.repeat(batch_row, delta_sizes),
        ))
        dst = np.concatenate((
            self._base.col[positions],
            np.fromiter(chain.from_iterable(deltas), dtype=_INDEX_DTYPE,
                        count=sum(delta_sizes)),
        ))
        # A tombstone is NaN, which no stored weight is.
        weight = np.concatenate((
            self._base.weights[positions] if self._weighted
            else np.ones(positions.size, dtype=_WEIGHT_DTYPE),
            np.fromiter(chain.from_iterable(map(dict.values, deltas)),
                        dtype=_WEIGHT_DTYPE, count=sum(delta_sizes)),
        ))

        keys = rows * np.int64(n) + dst
        order = stable_order(keys, vertices.size * n)
        keys = keys[order]
        last_writer = np.ones(keys.size, dtype=bool)
        last_writer[:-1] = keys[1:] != keys[:-1]
        kept = order[last_writer & ~np.isnan(weight[order])]
        row_ptr = np.zeros(vertices.size + 1, dtype=_INDEX_DTYPE)
        np.cumsum(np.bincount(rows[kept], minlength=vertices.size), out=row_ptr[1:])
        return RowBatch(
            vertices, row_ptr, dst[kept], weight[kept] if self._weighted else None
        )

    def _merged_row(self, vertex: int) -> tuple[np.ndarray, np.ndarray | None]:
        """One vertex's full current row as sorted ``(col, weights)``.

        O(deg + delta): merges the base row with the vertex's delta
        buffer.  No read path calls it: it is the one-row oracle
        ``tests/dynamic/test_merged_rows.py`` holds :meth:`_merged_rows`
        to, which snapshots and :meth:`logical_edges` use.
        """
        self._check_vertex(vertex)
        delta = self._adj.get(vertex)
        base_cols = self._base.neighbors(vertex)
        if not delta:
            cols = np.array(base_cols, dtype=_INDEX_DTYPE)
            if not self._weighted:
                return cols, None
            return cols, np.array(self._base.neighbor_weights(vertex),
                                  dtype=_WEIGHT_DTYPE)
        if self._weighted:
            row = dict(zip(base_cols.tolist(),
                           self._base.neighbor_weights(vertex).tolist()))
        else:
            row = dict.fromkeys(base_cols.tolist(), 1.0)
        for dst, weight in delta.items():
            if weight is _TOMBSTONE:
                row.pop(dst, None)
            else:
                row[dst] = weight
        cols = np.fromiter(sorted(row), dtype=_INDEX_DTYPE, count=len(row))
        if not self._weighted:
            return cols, None
        weights = np.fromiter(
            (row[int(dst)] for dst in cols), dtype=_WEIGHT_DTYPE, count=cols.size
        )
        return cols, weights

    def _note_delta_peak(self) -> None:
        if self._delta_entries > self.delta_peak:
            self.delta_peak = self._delta_entries
