"""Prepared sampler state with incremental, bit-identical maintenance.

Every software engine pays a per-graph preparation cost before its first
hop: DeepWalk's alias tables (``graph/alias.py``), the second-order
kernels' sorted edge-key array (``sampling/vectorized.py``), and the
ITS-style per-vertex CDF rows the weighted baselines scan.  On a static
graph that cost is paid once; on a mutating graph a naive engine pays it
again after *every* update batch, which is exactly the rebuild tax the
dynamic-graph papers (LightRW, FlexiWalker) structure their designs
around.

:class:`SamplerState` bundles all of that prepared state into one
immutable value, and :func:`advance_graph_and_state` rebuilds it
*incrementally*: vertices whose neighborhoods changed ("dirty" rows) are
rebuilt as one flat batch by the same row builders a from-scratch build
runs over every row (:mod:`repro.graph.rows`), while every clean row's
slots are copied bit-for-bit from the previous state.
Because alias slots and CDF rows are row-local — a slot names its two
neighbours by vertex id, which no update moves — the result is
**bit-identical** to ``SamplerState.full_build`` on a freshly
constructed CSR of the same logical graph — the property the dynamic
subsystem's snapshot-equivalence guarantee rests on, enforced by the
property tests in ``tests/dynamic/``.  (The sorted edge keys and the bit
filter in front of them are derived from the state's graph the first
time a second-order kernel asks — :attr:`SamplerState.edge_keys`,
:attr:`SamplerState.edge_set` — and never during an update.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.errors import DynamicGraphError
from repro.graph.alias import build_alias_rows
from repro.graph.csr import CSRGraph
from repro.graph.rows import gather_rows, row_cumsums, row_sums, within_row_index
from repro.obs.trace import span as _trace_span
from repro.sampling.hybrid import (
    HybridKernel,
    resolve_strategy_codes,
    select_row_strategies,
    select_strategies,
)
from repro.sampling.its import build_its_cdf, build_its_row_totals
from repro.sampling.vectorized import (
    ALIAS_SLOT,
    AliasKernel,
    EdgeSet,
    ITSKernel,
    VectorizedKernel,
    build_edge_keys,
    graph_alias_slots,
    pack_alias_slots,
)

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.float64


@dataclass(frozen=True, eq=False)
class SamplerState:
    """Every engine's prepared per-graph arrays, as one immutable value.

    The edge-aligned arrays follow the CSR column list of ``graph``, the
    version they were built for.  A snapshot carries one of these so
    engines can be swapped onto a new graph version without re-running
    any preparation pass.
    """

    graph: CSRGraph
    #: One packed :data:`~repro.sampling.vectorized.ALIAS_SLOT` per edge.
    alias_slots: np.ndarray
    its_cdf: np.ndarray
    its_row_totals: np.ndarray
    #: Per-vertex hybrid strategy codes, shape ``(num_vertices, 2)`` —
    #: the cost model's first-order and second-order choices (see
    #: :func:`repro.sampling.hybrid.select_strategies`), maintained with
    #: the default :class:`~repro.sampling.hybrid.HybridConfig` so a
    #: snapshot's selection map matches any freshly auto-prepared engine.
    strategy: np.ndarray

    def __post_init__(self) -> None:
        for array in (self.alias_slots, self.its_cdf, self.its_row_totals, self.strategy):
            array.setflags(write=False)
        if self.alias_slots.dtype != ALIAS_SLOT or not (
            self.alias_slots.shape == self.its_cdf.shape == self.graph.col.shape
        ):
            raise DynamicGraphError("sampler state arrays must align")
        if self.strategy.shape != (self.its_row_totals.size, 2):
            raise DynamicGraphError(
                "strategy map must hold one (first, second)-order pair per vertex"
            )

    @classmethod
    def full_build(cls, graph: CSRGraph) -> "SamplerState":
        """Build every prepared structure from scratch (the rebuild tax a
        static pipeline pays per update batch; the incremental path in
        :func:`advance_graph_and_state` must match this bit-for-bit)."""
        return cls(
            graph=graph,
            alias_slots=graph_alias_slots(graph),
            its_cdf=build_its_cdf(graph),
            its_row_totals=build_its_row_totals(graph),
            strategy=select_strategies(graph),
        )

    @property
    def num_slots(self) -> int:
        return self.alias_slots.size

    def arrays(self) -> dict[str, np.ndarray]:
        """All prepared arrays, keyed with the vectorized kernels' own
        ``state_arrays`` names (plus the ITS sampler's pair)."""
        return {
            "alias_slots": self.alias_slots,
            "its_cdf": self.its_cdf,
            "its_row_totals": self.its_row_totals,
            "edge_keys": self.edge_keys,
            "strategy": self.strategy,
        }

    def load_its_sampler(self, sampler, graph: CSRGraph) -> None:
        """Hand the maintained CDF rows to an
        :class:`~repro.sampling.its.InverseTransformSampler` prepared for
        ``graph`` (this state's owning snapshot graph) — the scalar-side
        equivalent of :meth:`kernel_arrays`, skipping the sampler's own
        O(|E|) ``prepare`` pass."""
        sampler.load_state(self.its_cdf, self.its_row_totals, graph)

    def kernel_arrays(self, kernel: VectorizedKernel) -> dict[str, np.ndarray]:
        """The subset of prepared arrays ``kernel`` actually consumes.

        Shaped for :meth:`~repro.sampling.vectorized.VectorizedKernel.load_state`;
        an empty mapping means the kernel needs no prepared state (uniform
        sampling, first-order reservoir), so a swap can skip both the load
        and any shared-memory broadcast.
        """
        arrays: dict[str, np.ndarray] = {}
        if isinstance(kernel, HybridKernel):
            # Same collapse the kernel's own prepare would run (dynamic
            # graphs carry no edge types), so a snapshot hand-off and a
            # fresh auto prepare agree on every row's strategy.
            arrays["hybrid_strategy"] = resolve_strategy_codes(kernel.base, self.strategy)
            arrays.update({name: getattr(self, name) for name in kernel.sub_state_names()})
        elif isinstance(kernel, AliasKernel):
            arrays.update(alias_slots=self.alias_slots)
        elif isinstance(kernel, ITSKernel):
            arrays.update(its_cdf=self.its_cdf, its_row_totals=self.its_row_totals)
        if kernel.second_order:
            arrays.update(self.edge_set.state_arrays())
        return arrays

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """Sorted ``src * |V| + dst`` keys of the state's graph.

        Only second-order kernels read them, so they are built on the
        first request and kept for the state's lifetime — never inside
        ``snapshot()`` / :func:`advance_graph_and_state`.
        """
        keys = build_edge_keys(self.graph)
        keys.setflags(write=False)
        return keys

    @cached_property
    def edge_set(self) -> EdgeSet:
        """The edge keys behind their bit filter, as lazy as the keys:
        first-order workloads on a mutating graph pay for neither."""
        return EdgeSet.from_keys(self.edge_keys, self.graph.num_vertices)


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
    Unchanged rows are copied (graph arrays and every prepared structure
    alike); the batch is rebuilt with the same row builders
    ``SamplerState.full_build`` runs over the whole graph, so the output
    is bit-identical to a from-scratch build of the same logical graph
    while costing O(|E| copies + rebuilt-row work) instead of the full
    alias/CDF construction passes.
    """
    with _trace_span("dynamic.assemble"):
        graph, runs, batch_positions = _assemble_csr(
            prev_graph, batch, name or prev_graph.name
        )
        num_edges = graph.num_edges
        alias_slots = np.empty(num_edges, dtype=ALIAS_SLOT)
        its_cdf = np.empty(num_edges, dtype=_WEIGHT_DTYPE)
        _copy_clean_runs(
            runs,
            (alias_slots, prev_state.alias_slots),
            (its_cdf, prev_state.its_cdf),
        )
        its_row_totals = prev_state.its_row_totals.copy()
        strategy = prev_state.strategy.copy()

    with _trace_span("dynamic.rebuild_rows"):
        vertices = batch.vertices
        if batch.weights is not None:
            prob, alias = build_alias_rows(batch.weights, batch.row_ptr)
            its_cdf[batch_positions] = row_cumsums(batch.weights, batch.row_ptr)
            its_row_totals[vertices] = row_sums(batch.weights, batch.row_ptr)
        else:
            alias = within_row_index(batch.row_ptr)
            prob = np.ones(alias.size, dtype=_WEIGHT_DTYPE)
            its_cdf[batch_positions] = alias + 1
            its_row_totals[vertices] = np.diff(batch.row_ptr)
        # Only the rebuilt rows are packed, from the batch's own columns.
        alias_slots[batch_positions] = pack_alias_slots(
            prob, alias, batch.row_ptr, batch.col
        )
        strategy[vertices] = select_row_strategies(batch.weights, batch.row_ptr)

    state = SamplerState(
        graph=graph,
        alias_slots=alias_slots,
        its_cdf=its_cdf,
        its_row_totals=its_row_totals,
        strategy=strategy,
    )
    return graph, state
