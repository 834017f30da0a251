"""The next graph version and its sampler state, built incrementally.

Every software engine pays a per-graph preparation cost before its first
hop — DeepWalk's alias slots, the second-order kernels' edge set — and
each reads only its own; on a mutating graph a naive engine pays that
cost again after *every* update batch, the rebuild tax the dynamic-graph
papers (LightRW, FlexiWalker) design around.

A graph's prepared arrays live in its one
:class:`~repro.sampling.vectorized.SamplerState`, built on first read.
:func:`advance_graph_and_state` builds the next epoch's CSR from the
previous one plus a batch of replaced rows, and seeds the new graph's
state with every member the previous graph's state holds — so a member
is carried by every epoch after its first reader, at ``snapshot()``
time, and one nobody reads costs nothing.  Alias slots are maintained:
clean rows copied bit-for-bit, dirty rows rebuilt as one flat batch by
the same row builders the from-scratch build runs
(:mod:`repro.graph.rows`).  The edge set is built from the new CSR: a
filter cannot unset bits, and a removed key would leave a hole in its
bucket line.  Every carried member is **bit-identical** to a
from-scratch build on a fresh CSR of the same logical graph
(``tests/dynamic/``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.graph.alias import build_alias_rows
from repro.graph.csr import CSRGraph
from repro.graph.rows import gather_rows, within_row_index
from repro.obs.trace import span as _trace_span
from repro.sampling.vectorized import EdgeSet, SamplerState, pack_alias_slots

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


def _alias_rows(batch: RowBatch) -> np.ndarray:
    """The alias slots of the batch's rows alone, from its own columns."""
    if batch.weights is None:
        alias = within_row_index(batch.row_ptr)
        prob = np.ones(alias.size, dtype=_WEIGHT_DTYPE)
    else:
        prob, alias = build_alias_rows(batch.weights, batch.row_ptr)
    return pack_alias_slots(prob, alias, batch.row_ptr, batch.col)


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
    batch: RowBatch,
    name: str | None = None,
) -> tuple[CSRGraph, SamplerState]:
    """Produce the next ``(CSRGraph, SamplerState)`` version incrementally.

    ``batch`` holds each changed vertex's complete new neighborhood.
    Unchanged rows are copied (graph arrays and held alias slots alike);
    the batch's alias slots are rebuilt with the same row builders a
    from-scratch build runs over the whole graph, so they are
    bit-identical to one while costing O(|E| copies + rebuilt-row work).
    A held edge set is built from the new CSR.  Members the previous
    state does not hold stay unbuilt; the new state shares its ``builds``
    ledger.
    """
    prev_state = SamplerState.of(prev_graph)
    held = dict(prev_state.held)  # a reader on another thread may be adding
    old_slots = held.get("alias_slots")
    with _trace_span("dynamic.assemble"):
        graph, runs, batch_positions = _assemble_csr(
            prev_graph, batch, name or prev_graph.name
        )
        if old_slots is not None:
            slots = np.empty(graph.num_edges, dtype=old_slots.dtype)
            _copy_clean_runs(runs, (slots, old_slots))

    state = SamplerState.of(graph)
    state.builds = prev_state.builds  # one ledger for every epoch
    with _trace_span("dynamic.rebuild_rows"):
        if old_slots is not None:
            with _trace_span("dynamic.rebuild_member", member="alias_slots"):
                slots[batch_positions] = _alias_rows(batch)
            slots.setflags(write=False)
            state.hold("alias_slots", slots, "incremental")
        if "edge_set" in held:
            with _trace_span("dynamic.rebuild_member", member="edge_set"):
                state.hold("edge_set", EdgeSet.build(graph), "incremental")
    return graph, state
