"""Graph partitioning and per-shard shared-memory stores.

A shard owns a subset of vertices (and exactly their outgoing edge
rows).  Its shared segment holds three kinds of arrays:

* **local per-edge data** — the owned rows of ``col``/``weights``/
  ``edge_types``, concatenated in ascending vertex order, plus the
  owned slices of per-edge kernel state (alias slots, ITS CDF rows).
  This is the memory that actually scales down with the shard count.
* **replicated per-vertex data** — the global ``degrees`` array, the
  owner map, and per-vertex kernel state (ITS row totals).  O(|V|)
  per shard, the standard
  edge-cut trade: any shard may need another shard's *degree* (the
  dangling check, Node2Vec's ``deg(prev)`` accounting) but never its
  edge list.
* **replicated probe structures** — the sorted global edge-key array
  and its bit filter behind second-order adjacency probes, which ask
  about arbitrary ``(prev, candidate)`` pairs regardless of ownership.

:class:`ShardGraphView` presents the shard to the vectorized sampling
kernels through the same attribute surface as a :class:`CSRGraph` —
the kernels only ever index ``row_ptr``/``col`` at a walker's *current*
vertex, which the routing layer guarantees is shard-owned, so a full
local CSR (with a dense |V|+1 row-pointer array of mostly-foreign
offsets) is never materialized.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.parallel.planner import QueryCostModel, plan_shards
from repro.parallel.shared_graph import KERNEL_PREFIX, SharedArrayStore
from repro.walks.base import WalkSpec

#: Keys the shard store uses for its graph-side arrays.
_OWNER_KEY = "dist:owner"
_DEGREES_KEY = "dist:degrees"
_ROW_START_KEY = "dist:row_start"
_COL_KEY = "dist:col"
_WEIGHTS_KEY = "dist:weights"
_EDGE_TYPES_KEY = "dist:edge_types"

#: Kernel state arrays aligned with the global CSR edge list — these are
#: sliced to the shard's owned edge positions (an alias slot names its
#: neighbours by global vertex id, so a sliced record is valid as it
#: stands).  Everything else a kernel exports (per-vertex maps, the
#: sorted global edge keys and their bit filter) is consulted for
#: arbitrary vertices during sampling and replicates.
_PER_EDGE_STATE = frozenset({"alias_slots", "its_cdf"})


class ShardGraphView:
    """Duck-typed graph facade a shard's sampling kernels run against.

    ``row_ptr`` maps an *owned* vertex to its row's offset in the local
    ``col``/``weights``/``edge_types`` arrays; non-owned entries hold an
    out-of-range poison value so an ownership bug fails with an index
    error instead of silently sampling a foreign row.  ``degrees()`` and
    ``num_vertices`` are global — the kernels consult them for previous
    vertices a walker carried across a shard boundary.
    """

    def __init__(
        self,
        num_vertices: int,
        row_start: np.ndarray,
        col: np.ndarray,
        weights: np.ndarray | None,
        edge_types: np.ndarray | None,
        degrees: np.ndarray,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.row_ptr = row_start
        self.col = col
        self.weights = weights
        self.edge_types = edge_types
        self.is_weighted = weights is not None
        self._degrees = degrees

    def degrees(self) -> np.ndarray:
        return self._degrees


def partition_vertices(graph: CSRGraph, spec: WalkSpec, num_shards: int) -> np.ndarray:
    """Owner map: ``owner[v]`` is the shard whose segment holds row ``v``.

    Reuses the parallel planner's degree-aware cost model — a vertex's
    expected walker load (hops a walk starting there would make) stands
    in for the row's routing traffic, so heavy rows spread across shards
    instead of clustering by vertex id.  Deterministic for a given
    ``(graph, spec, num_shards)``; correctness never depends on the
    split, only forwarding volume does.
    """
    costs = QueryCostModel(graph, spec).costs(
        np.arange(graph.num_vertices, dtype=np.int64)
    )
    owner = np.zeros(graph.num_vertices, dtype=np.int64)
    for shard, members in enumerate(plan_shards(costs, num_shards)):
        owner[members] = shard
    return owner


def _owned_edge_positions(
    graph: CSRGraph, owned: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, row_starts)`` of the owned rows' edges.

    ``positions`` indexes the global CSR edge arrays, concatenating the
    owned rows in ascending vertex order; ``row_starts`` is each owned
    row's offset in that concatenation.
    """
    degrees = graph.degrees()[owned].astype(np.int64)
    ends = np.cumsum(degrees)
    row_starts = ends - degrees
    total = int(ends[-1]) if degrees.size else 0
    within = np.arange(total, dtype=np.int64) - np.repeat(row_starts, degrees)
    positions = np.repeat(graph.row_ptr[owned], degrees) + within
    return positions, row_starts


def build_shard_stores(
    graph: CSRGraph,
    kernel_arrays: dict[str, np.ndarray],
    owner: np.ndarray,
    num_shards: int,
) -> list[SharedArrayStore]:
    """One shared segment per shard: local edge data + replicated state.

    Either every store is created and returned, or none survive: a
    failure partway through closes (and unlinks) the segments already
    created, so a crashed engine bring-up cannot strand earlier shards'
    segments in ``/dev/shm`` (RW103 — same audit as
    :meth:`SharedArrayStore.create` applies per segment).
    """
    degrees = graph.degrees().astype(np.int64)
    stores: list[SharedArrayStore] = []
    try:
        for shard in range(num_shards):
            owned = np.nonzero(owner == shard)[0]
            positions, row_starts = _owned_edge_positions(graph, owned)
            # Poison non-owned entries past the local edge arrays so a
            # routing bug raises IndexError instead of reading a wrong row.
            row_start = np.full(graph.num_vertices, positions.size, dtype=np.int64)
            row_start[owned] = row_starts
            arrays: dict[str, np.ndarray] = {
                _OWNER_KEY: owner,
                _DEGREES_KEY: degrees,
                _ROW_START_KEY: row_start,
                _COL_KEY: graph.col[positions],
            }
            if graph.weights is not None:
                arrays[_WEIGHTS_KEY] = graph.weights[positions]
            if graph.edge_types is not None:
                arrays[_EDGE_TYPES_KEY] = graph.edge_types[positions]
            for name, array in kernel_arrays.items():
                if name in _PER_EDGE_STATE:
                    arrays[KERNEL_PREFIX + name] = array[positions]
                else:
                    arrays[KERNEL_PREFIX + name] = array
            stores.append(SharedArrayStore.create(arrays, graph_name=graph.name))
    except BaseException:
        for store in stores:
            store.close()
        raise
    return stores


def shard_view_from_store(
    store: SharedArrayStore,
) -> tuple[ShardGraphView, np.ndarray]:
    """Rebuild ``(view, owner_map)`` from a shard store's zero-copy views."""
    arrays = store.arrays()
    owner = arrays[_OWNER_KEY]
    view = ShardGraphView(
        num_vertices=owner.size,
        row_start=arrays[_ROW_START_KEY],
        col=arrays[_COL_KEY],
        weights=arrays.get(_WEIGHTS_KEY),
        edge_types=arrays.get(_EDGE_TYPES_KEY),
        degrees=arrays[_DEGREES_KEY],
    )
    return view, owner
