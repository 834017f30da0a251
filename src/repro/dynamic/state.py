"""Prepared sampler state, built on first ask and maintained once asked.

Every software engine pays a per-graph preparation cost before its first
hop — DeepWalk's alias slots, the second-order kernels' sorted edge
keys — and each reads only its own: uniform and first-order reservoir
kernels read none.  On a mutating graph a naive engine pays that cost
again after *every* update batch, the rebuild tax the dynamic-graph
papers (LightRW, FlexiWalker) design around.

:class:`SamplerState` is one graph version plus the prepared arrays
somebody has read.  :data:`MEMBERS` declares each array once — its
from-scratch builder over a ``CSRGraph`` and its row rebuilder over a
:class:`RowBatch`, one slot per ``graph.col`` entry.  *Reading* a
member (``state.alias_slots``, :meth:`~SamplerState.kernel_arrays`,
:meth:`~SamplerState.arrays`) builds it from scratch if the state does
not hold it and keeps it, read-only; :func:`advance_graph_and_state`
maintains exactly the members the previous state holds — clean rows
copied bit-for-bit, dirty rows rebuilt as one flat batch by the same row
builders the from-scratch build runs (:mod:`repro.graph.rows`) — and
leaves the rest unbuilt.  So a member is inherited by every epoch after
its first reader (sticky, never evicted) and one nobody reads costs
nothing.  Every held member is **bit-identical** to
``SamplerState.full_build`` on a fresh CSR of the same logical graph
(``tests/dynamic/``).  The bit filter in front of the edge keys is
derived from them on first ask per state (:attr:`SamplerState.edge_set`):
a filter cannot unset bits.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import DynamicGraphError
from repro.graph.alias import build_alias_rows
from repro.graph.csr import CSRGraph
from repro.graph.rows import gather_rows, within_row_index
from repro.obs.trace import span as _trace_span
from repro.sampling.vectorized import (
    AliasKernel,
    EdgeSet,
    VectorizedKernel,
    build_edge_keys,
    graph_alias_slots,
    pack_alias_slots,
)

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.float64


class RowBatch(NamedTuple):
    """Complete new neighborhoods of some vertices, as one flat batch.

    ``vertices`` is ascending and duplicate-free; row ``i`` of the batch
    — ``col[row_ptr[i]:row_ptr[i + 1]]``, ascending, with ``weights``
    aligned (``None`` on unweighted graphs) — replaces vertex
    ``vertices[i]``'s whole row.  The same ``(values, row_ptr)`` shape
    the row builders in :mod:`repro.graph.rows` take.
    """

    vertices: np.ndarray
    row_ptr: np.ndarray
    col: np.ndarray
    weights: np.ndarray | None


def _alias_rows(batch: RowBatch, num_vertices: int) -> np.ndarray:
    if batch.weights is None:
        alias = within_row_index(batch.row_ptr)
        prob = np.ones(alias.size, dtype=_WEIGHT_DTYPE)
    else:
        prob, alias = build_alias_rows(batch.weights, batch.row_ptr)
    # Only the rebuilt rows are packed, from the batch's own columns.
    return pack_alias_slots(prob, alias, batch.row_ptr, batch.col)


def _key_rows(batch: RowBatch, num_vertices: int) -> np.ndarray:
    sources = np.repeat(batch.vertices, np.diff(batch.row_ptr))
    return sources * np.int64(num_vertices) + batch.col


class Member(NamedTuple):
    """One prepared array, aligned with ``graph.col``: ``build(graph)``
    makes it from scratch, ``rows(batch, num_vertices)`` the slots of a
    batch of replaced rows."""

    build: Callable[[CSRGraph], np.ndarray]
    rows: Callable[[RowBatch, int], np.ndarray]


#: Everything a :class:`SamplerState` can hold.  ``alias_slots`` is one
#: packed ``ALIAS_SLOT`` per edge.  (Lambdas, so a builder is looked up in
#: this module when it runs and a test's spy on it counts.)
MEMBERS: dict[str, Member] = {
    "alias_slots": Member(lambda graph: graph_alias_slots(graph), _alias_rows),
    "edge_keys": Member(lambda graph: build_edge_keys(graph), _key_rows),
}


class SamplerState:
    """One graph version and the prepared arrays read on it so far.

    ``held`` maps member name to its read-only array; ``builds`` counts
    ``(member, "scratch" | "incremental")`` builds over every state of one
    dynamic graph (telemetry, unsynchronised: readers racing on another
    thread may build a member twice and count it once — never wrongly).
    A snapshot carries one of these so an engine swaps onto a new version
    without re-running a prepare pass.
    """

    def __init__(self, graph: CSRGraph, held: dict[str, np.ndarray] | None = None,
                 builds: Counter | None = None) -> None:
        self.graph = graph
        self.held: dict[str, np.ndarray] = {}
        self.builds = Counter() if builds is None else builds
        self._edge_set: EdgeSet | None = None
        for name, array in (held or {}).items():
            self._hold(name, array)

    def _hold(self, name: str, array: np.ndarray) -> None:
        if len(array) != self.graph.num_edges:
            raise DynamicGraphError(f"sampler state member {name} must align with its graph")
        array.setflags(write=False)
        self.held[name] = array

    def __getattr__(self, name: str) -> np.ndarray:
        """A member not held yet is built from scratch, once, and kept."""
        if name not in MEMBERS:
            raise AttributeError(name)
        if name not in self.held:
            with _trace_span("dynamic.build_member", member=name):
                self._hold(name, MEMBERS[name].build(self.graph))
            self.builds[name, "scratch"] += 1
        return self.held[name]

    @classmethod
    def full_build(cls, graph: CSRGraph) -> "SamplerState":
        """Ask for everything: the rebuild tax a static pipeline pays per
        batch, and what every incrementally held member must equal."""
        state = cls(graph)
        state.arrays()
        return state

    @property
    def num_slots(self) -> int:
        return self.graph.num_edges

    def arrays(self) -> dict[str, np.ndarray]:
        """Every member, keyed with the vectorized kernels' own
        ``state_arrays`` names."""
        return {name: getattr(self, name) for name in MEMBERS}

    def kernel_arrays(self, kernel: VectorizedKernel) -> dict[str, np.ndarray]:
        """The prepared arrays ``kernel`` consumes — read, so held from
        this epoch on.

        Shaped for :meth:`~repro.sampling.vectorized.VectorizedKernel.load_state`;
        an empty mapping means the kernel needs no prepared state (uniform
        sampling, first-order reservoir), so a swap can skip the load.
        """
        arrays: dict[str, np.ndarray] = {}
        if isinstance(kernel, AliasKernel):
            arrays.update(alias_slots=self.alias_slots)
        if kernel.second_order:
            arrays.update(self.edge_set.state_arrays())
        return arrays

    @property
    def edge_set(self) -> EdgeSet:
        """The edge keys behind their bit filter, derived on first ask."""
        if self._edge_set is None:
            self._edge_set = EdgeSet.from_keys(self.edge_keys, self.graph.num_vertices)
        return self._edge_set


#: The unchanged rows of an update: the (at most ``len(batch) + 1``)
#: contiguous edge ranges between replaced rows, each as ``(new-array
#: start, old-array start, old-array stop)``.
_CleanRuns = list[tuple[int, int, int]]


def _opaque_items(array: np.ndarray) -> np.ndarray:
    """A record array viewed as opaque items of the same size: numpy
    copies records field by field (7x the time of moving their bytes)."""
    return array.view((np.void, array.itemsize)) if array.dtype.names else array


def _copy_clean_runs(runs: _CleanRuns, *pairs: tuple[np.ndarray, np.ndarray]) -> None:
    """``new[...] = old[...]`` over every run, for each ``(new, old)`` pair
    of edge-aligned arrays: slice copies, no ``|E|``-long index."""
    pairs = [(_opaque_items(new), _opaque_items(old)) for new, old in pairs]
    for new_start, old_start, old_stop in runs:
        new_stop = new_start + old_stop - old_start
        for new, old in pairs:
            new[new_start:new_stop] = old[old_start:old_stop]


def _assemble_csr(
    prev_graph: CSRGraph, batch: RowBatch, name: str
) -> tuple[CSRGraph, _CleanRuns, np.ndarray]:
    """Build the next CSR from the previous one plus replaced rows.

    Returns ``(graph, clean_runs, batch_positions)``: the unchanged edge
    ranges (which the sampler-state copy reuses) and the position of
    every batch slot in the new edge-aligned arrays.
    """
    n = prev_graph.num_vertices
    vertices = batch.vertices
    new_deg = prev_graph.degrees().copy()
    new_deg[vertices] = np.diff(batch.row_ptr)
    row_ptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
    np.cumsum(new_deg, out=row_ptr[1:])
    num_edges = int(row_ptr[-1])

    # Rows keep their internal order, only their starting offsets shift:
    # the rows strictly between two replaced vertices move as one block.
    first_clean = np.concatenate(([0], vertices + 1))
    old_start = prev_graph.row_ptr[first_clean]
    old_stop = prev_graph.row_ptr[np.concatenate((vertices, [n]))]
    occupied = old_stop > old_start
    runs = list(zip(
        row_ptr[first_clean][occupied].tolist(),
        old_start[occupied].tolist(),
        old_stop[occupied].tolist(),
    ))
    batch_positions, _ = gather_rows(row_ptr, vertices)

    col = np.empty(num_edges, dtype=_INDEX_DTYPE)
    col[batch_positions] = batch.col
    copies = [(col, prev_graph.col)]
    weights = None
    if prev_graph.is_weighted:
        weights = np.empty(num_edges, dtype=_WEIGHT_DTYPE)
        weights[batch_positions] = batch.weights
        copies.append((weights, prev_graph.weights))
    _copy_clean_runs(runs, *copies)
    graph = CSRGraph(row_ptr=row_ptr, col=col, weights=weights, name=name)
    return graph, runs, batch_positions


def advance_graph_and_state(
    prev_graph: CSRGraph,
    prev_state: SamplerState,
    batch: RowBatch,
    name: str | None = None,
) -> tuple[CSRGraph, SamplerState]:
    """Produce the next ``(CSRGraph, SamplerState)`` version incrementally.

    ``batch`` holds each changed vertex's complete new neighborhood.
    Unchanged rows are copied (graph arrays and every member
    ``prev_state`` holds alike); the batch is rebuilt with the same row
    builders a from-scratch build runs over the whole graph, so each held
    member is bit-identical to one while costing O(|E| copies +
    rebuilt-row work).  Members ``prev_state`` does not hold stay unbuilt.
    """
    held_before = dict(prev_state.held)  # a reader on another thread may be adding
    with _trace_span("dynamic.assemble"):
        graph, runs, batch_positions = _assemble_csr(
            prev_graph, batch, name or prev_graph.name
        )
        held = {
            member: np.empty(graph.num_edges, dtype=old.dtype)
            for member, old in held_before.items()
        }
        _copy_clean_runs(runs, *((held[member], old) for member, old in held_before.items()))

    with _trace_span("dynamic.rebuild_rows"):
        for member, new in held.items():
            with _trace_span("dynamic.rebuild_member", member=member):
                new[batch_positions] = MEMBERS[member].rows(batch, graph.num_vertices)
            prev_state.builds[member, "incremental"] += 1
    return graph, SamplerState(graph, held, prev_state.builds)
