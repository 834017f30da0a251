"""Versioned mutable graph: streamed updates, snapshots, compaction.

:class:`DynamicGraph` is the write side of the dynamic subsystem.  It
holds an immutable CSR **base** plus per-vertex **delta buffers**: each
touched vertex carries a small override map of *changes* against its
base row — inserted edges, re-drawn weights, and tombstones for removed
base edges — so a streamed ``add_edges`` / ``remove_edges`` /
``update_weights`` op costs one dictionary write plus one O(log d)
adjacency probe, independent of the vertex's degree (touching an RMAT
hub must not copy its whole neighbor list).  Once the deltas grow past
a configurable fraction of the base, they are **compacted** back into a
fresh ``CSRGraph`` (amortized O(|E|)), bounding overlay memory and
per-snapshot merge cost.

The read side is :meth:`DynamicGraph.snapshot`: an epoch-versioned,
immutable ``(CSRGraph, SamplerState)`` pair.  Snapshots are built
*incrementally* from the previous epoch — only rows dirtied since the
last snapshot are rebuilt, and only in the prepared arrays some reader
has asked a snapshot for (see :mod:`repro.dynamic.state`) — and are
bit-identical to a from-scratch build of the same logical edge set.
Engines and the serving layer keep walking one epoch while updates
stream into the next; swapping an engine onto a new epoch is
``PreparedEngine.swap_snapshot`` (no pool respawn, no cold prepare).

Model notes: the vertex set is fixed at construction; the graph is
simple (at most one directed edge per ``(src, dst)`` — a duplicate
insert updates the weight in place); MetaPath's edge/vertex types are
not supported.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from repro.dynamic.state import (
    RowBatch,
    SamplerState,
    _assemble_csr,
    advance_graph_and_state,
)
from repro.errors import DynamicGraphError
from repro.graph.builders import validate_edge_weights
from repro.graph.csr import CSRGraph
from repro.graph.rows import gather_rows, stable_order
from repro.obs.trace import span as _trace_span

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.float64
#: A removed *base* edge's delta value: one NaN object, known by identity.
_TOMBSTONE = float("nan")


@dataclass(frozen=True, eq=False)
class GraphSnapshot:
    """One published graph version, immutable.

    ``epoch`` is a monotonically increasing version id (0 is the
    construction-time state).  ``graph`` is a plain ``CSRGraph`` every
    engine already understands; ``sampler_state`` holds the prepared
    kernel arrays (alias slots, ITS CDF rows, edge keys) readers of
    earlier epochs asked for, so a swap onto this snapshot needs no
    preparation pass.  Hand engines the snapshot, not its ``graph``:
    what they read at construction is then inherited by later epochs.
    """

    epoch: int
    graph: CSRGraph
    sampler_state: SamplerState

    def kernel_arrays(self, kernel) -> dict[str, np.ndarray]:
        """Prepared arrays for one vectorized kernel (possibly empty)."""
        return self.sampler_state.kernel_arrays(kernel)


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
    compaction_threshold:
        Fold the delta overlay back into a fresh CSR base once the
        overlay holds more than this fraction of the base's edges.
    min_compaction_edges:
        Never compact below this overlay size — tiny graphs would
        otherwise compact on every update.
    """

    def __init__(
        self,
        base: CSRGraph,
        compaction_threshold: float = 0.25,
        min_compaction_edges: int = 4096,
    ) -> None:
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
        if compaction_threshold <= 0:
            raise DynamicGraphError(
                f"compaction_threshold must be > 0, got {compaction_threshold}"
            )
        if min_compaction_edges < 0:
            raise DynamicGraphError(
                f"min_compaction_edges must be >= 0, got {min_compaction_edges}"
            )
        self._base = base
        self._weighted = base.is_weighted
        self._compaction_threshold = float(compaction_threshold)
        self._min_compaction_edges = int(min_compaction_edges)
        #: Per-vertex delta buffers, relative to the current base:
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
        #: Callbacks invoked with each newly published GraphSnapshot
        #: (epoch 0 included).  The serve layer's hot-walk cache hooks in
        #: here to invalidate stale pools the moment an epoch exists.
        self._epoch_listeners: list = []
        self.updates_applied = 0
        self.compactions = 0
        self.compaction_seconds = 0.0
        #: High-water mark of :attr:`delta_edges` — how close the overlay
        #: came to the compaction threshold (reported by mutate-bench).
        self.delta_peak = 0
        #: Sampler-state builds, ``(member, "scratch" | "incremental") -> count``.
        self.state_builds: Counter = Counter()

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
    def is_weighted(self) -> bool:
        return self._weighted

    @property
    def name(self) -> str:
        return self._base.name

    @property
    def epoch(self) -> int:
        """Epoch of the most recently published snapshot."""
        return self._epoch

    @property
    def delta_edges(self) -> int:
        """Entries currently held in the per-vertex delta buffers."""
        return self._delta_entries

    @property
    def has_pending_updates(self) -> bool:
        """Whether updates since the last snapshot await publication."""
        return bool(self._dirty)

    def degree(self, vertex: int) -> int:
        self._check_vertex(vertex)
        delta = self._adj.get(vertex)
        if not delta:
            return self._base.degree(vertex)
        degree = self._base.degree(vertex)
        for dst, weight in delta.items():
            if weight is _TOMBSTONE:
                degree -= 1
            elif not self._base.has_edge(vertex, dst):
                degree += 1
        return degree

    def neighbors(self, vertex: int) -> np.ndarray:
        """Current neighbor list of ``vertex``, ascending."""
        cols, _ = self._merged_row(vertex)
        return cols

    def neighbor_weights(self, vertex: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors` (ones when unweighted)."""
        cols, weights = self._merged_row(vertex)
        if weights is None:
            return np.ones(cols.size, dtype=_WEIGHT_DTYPE)
        return weights

    def has_edge(self, src: int, dst: int) -> bool:
        self._check_vertex(src)
        delta = self._adj.get(src)
        if delta is not None and dst in delta:
            return delta[dst] is not _TOMBSTONE
        return self._base.has_edge(src, dst)

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
        self._maybe_compact()
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
        self._maybe_compact()

    def update_weights(self, edges, weights: Sequence[float] | np.ndarray) -> None:
        """Re-weight existing edges (weighted graphs only)."""
        if not self._weighted:
            raise DynamicGraphError(
                "cannot update weights on an unweighted dynamic graph"
            )
        src, dst, weight_array = self._check_update(edges, weights, need_weights=True)
        for s, d, w, in_base in zip(*self._ops(src, dst, weight_array)):
            delta = self._delta(s)
            in_delta = d in delta
            present = delta[d] is not _TOMBSTONE if in_delta else in_base
            if not present:
                raise DynamicGraphError(
                    f"cannot re-weight edge {s} -> {d}: it does not exist"
                )
            if not in_delta:
                self._delta_entries += 1
            delta[d] = w
            self._dirty.add(s)
        self.updates_applied += src.size
        self._maybe_compact()

    # ------------------------------------------------------------------
    # Snapshots and compaction
    # ------------------------------------------------------------------
    def snapshot(self) -> GraphSnapshot:
        """Publish the current logical graph as an immutable epoch.

        With no pending updates this returns the cached snapshot (same
        object, same epoch).  Otherwise a new epoch is built
        incrementally from the previous one: dirty rows are rebuilt,
        clean rows copied bit-for-bit, in the graph arrays and in every
        prepared array a reader has asked an earlier ``sampler_state``
        for — epoch 0 starts with none built, what nobody asks for never
        is (see :func:`repro.dynamic.state.advance_graph_and_state`).
        """
        previous = self._published
        if previous is None:
            previous = GraphSnapshot(
                epoch=self._epoch,
                graph=self._base,
                sampler_state=SamplerState(self._base, builds=self.state_builds),
            )
            self._published = previous
            self._notify_epoch(previous)
        if not self._dirty:
            return previous
        with _trace_span("dynamic.snapshot", epoch=self._epoch + 1,
                         dirty_rows=len(self._dirty)) as snapshot_span:
            with _trace_span("dynamic.merge"):
                batch = self._merged_rows(self._dirty)
            snapshot_span.annotate(dirty_edges=int(batch.col.size))
            graph, state = advance_graph_and_state(
                previous.graph,
                previous.sampler_state,
                batch,
                name=self._base.name,
            )
            if state.held:  # what this epoch maintained; absent when nothing
                snapshot_span.annotate(members=sorted(state.held))
            self._epoch += 1
            snapshot = GraphSnapshot(
                epoch=self._epoch, graph=graph, sampler_state=state
            )
            self._published = snapshot
            self._dirty.clear()
            self._notify_epoch(snapshot)
        return snapshot

    def add_epoch_listener(self, listener) -> None:
        """Register ``listener(snapshot)`` for every published epoch.

        Fires on each *new* publication (including the lazy epoch-0
        build); re-returning a cached snapshot does not re-fire.  The
        hot-walk cache's :meth:`repro.serve.cache.HotWalkCache.on_epoch`
        is the canonical listener — attaching it here invalidates stale
        pools at the write side, without waiting for the serve layer to
        apply the swap.
        """
        self._epoch_listeners.append(listener)

    def _notify_epoch(self, snapshot: GraphSnapshot) -> None:
        for listener in self._epoch_listeners:
            listener(snapshot)

    @property
    def needs_compaction(self) -> bool:
        limit = max(
            self._min_compaction_edges,
            int(self._compaction_threshold * self._base.num_edges),
        )
        return self._delta_entries > limit

    def compact(self) -> None:
        """Fold the delta overlay into a fresh CSR base (amortized O(|E|)).

        Purely representational: the logical graph, the dirty set and the
        published epoch are unchanged, so snapshots before and after a
        compaction are bit-identical.  Runs automatically after an update
        crosses the threshold; callers only need it to bound memory ahead
        of a known burst.
        """
        if not self._adj:
            return
        with _trace_span("dynamic.compact", delta_edges=self._delta_entries):
            started = time.perf_counter()
            self._base = self._merged_csr()
            self._adj.clear()
            self._delta_entries = 0
            self.compactions += 1
            self.compaction_seconds += time.perf_counter() - started

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
        base only changes at a call's end (compaction), so membership is
        one row-bounded binary search over all ops at once."""
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
        buffer.  Backs the single-vertex read API only; snapshots,
        compaction and :meth:`logical_edges` merge whole batches of rows
        at once (:meth:`_merged_rows`).
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

    def _maybe_compact(self) -> None:
        if self._delta_entries > self.delta_peak:
            self.delta_peak = self._delta_entries
        if self.needs_compaction:
            self.compact()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, epoch={self._epoch}, "
            f"delta={self._delta_entries}, dirty={len(self._dirty)})"
        )
