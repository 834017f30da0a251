"""Alias-table construction (Walker's method) for O(1) weighted sampling.

DeepWalk on weighted graphs uses alias sampling (paper Table I): each
vertex's neighbor list carries an alias table so a neighbor can be drawn
with two random numbers and one table lookup.  The paper extends the CSR
row-pointer entry to 256 bits to store the alias-table pointer and size;
our memory layout mirrors that (see :mod:`repro.memory.layout`).

The tables here are built with Vose's stable O(d) algorithm per vertex and
stored flat, aligned with the CSR column list, so the simulated hardware
can fetch ``(prob, alias)`` with the same address arithmetic it uses for
the neighbor itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError, SamplingError
from repro.graph.csr import CSRGraph
from repro.graph.rows import row_sums, within_row_index


@dataclass(frozen=True, eq=False)
class AliasTable:
    """Flat alias tables for every vertex of a graph.

    Attributes
    ----------
    prob:
        ``float64`` array aligned with the CSR column list.  ``prob[RP[v]+i]``
        is the acceptance probability of slot ``i`` in vertex ``v``'s table.
    alias:
        ``int64`` array aligned the same way; ``alias[RP[v]+i]`` is the
        *within-neighborhood* index used when slot ``i`` rejects.
    """

    prob: np.ndarray
    alias: np.ndarray

    def __post_init__(self) -> None:
        if self.prob.shape != self.alias.shape:
            raise GraphError("prob and alias must align")
        self.prob.setflags(write=False)
        self.alias.setflags(write=False)

    def slot(self, offset: int, index: int) -> tuple[float, int]:
        """Return ``(prob, alias)`` for table slot ``index`` of the
        neighborhood starting at CSR offset ``offset``."""
        return float(self.prob[offset + index]), int(self.alias[offset + index])

    def sample_index(self, offset: int, degree: int, u1: float, u2: float) -> int:
        """Draw a within-neighborhood index using two uniforms in [0, 1).

        This is the exact operation the hardware Sampling module performs:
        ``u1`` picks the slot, ``u2`` accepts or redirects to the alias.
        """
        if degree <= 0:
            raise SamplingError("cannot alias-sample from an empty neighborhood")
        slot = min(int(u1 * degree), degree - 1)
        prob, alias = self.slot(offset, slot)
        return slot if u2 < prob else alias

    @property
    def num_slots(self) -> int:
        """Total number of table slots (== number of edges)."""
        return self.prob.size

    def table_bytes(self, entry_bits: int = 64) -> int:
        """Memory footprint of the flat tables at the given entry width."""
        return self.num_slots * entry_bits // 8


#: Below this many unfinished rows a lock-step round costs more in numpy
#: call overhead than pairing the rows one at a time (the tail of a batch
#: is a few hub rows with thousands of pairings left each).
_LOCKSTEP_MIN_ROWS = 48

#: A batch is built in blocks of whole rows holding about this many slots,
#: so the dozen slot-aligned temporaries of a block stay cache-sized
#: whatever the batch: on RMAT-16 (955k slots) the build peaks 8 MB above
#: its two output arrays instead of 57 MB, for the same time.
_BLOCK_SLOTS = 1 << 17


def build_alias_rows(
    weights: np.ndarray, row_ptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Alias tables for a batch of rows (Vose's algorithm, all rows at once).

    ``weights`` holds the rows back to back and ``row_ptr`` their
    ``len(rows) + 1`` offsets; returns flat ``(prob, alias)`` aligned
    with ``weights``, ``alias`` holding within-row indices.  Empty rows
    are skipped; a non-positive or non-finite weight raises
    :class:`SamplingError` naming the first offending row.

    Every row runs the textbook loop — pop the top of its *small* and
    *large* stacks, pair them, push the donor back — but the rows advance
    in lock-step, one pairing per unfinished row per round, each round a
    handful of array operations.  The two stacks of a row share the row's
    own segment of two flat arrays (a row never stacks more entries than
    it has slots), with per-row stack heights beside them.  Each row sees
    the same IEEE operations in the same order as when built alone, so a
    row's table does not depend on what it was batched with.
    """
    weights = np.asarray(weights, dtype=np.float64)
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    prob = np.ones(weights.size, dtype=np.float64)
    alias = np.empty(weights.size, dtype=np.int64)
    first, num_rows = 0, row_ptr.size - 1
    while first < num_rows:
        lo = int(row_ptr[first])
        last = int(np.searchsorted(row_ptr, lo + _BLOCK_SLOTS, side="right")) - 1
        last = min(max(last, first + 1), num_rows)
        hi = int(row_ptr[last])
        _build_alias_block(
            weights[lo:hi], row_ptr[first : last + 1] - lo, prob[lo:hi], alias[lo:hi], first
        )
        first = last
    return prob, alias


def _build_alias_block(
    weights: np.ndarray,
    row_ptr: np.ndarray,
    prob: np.ndarray,
    alias: np.ndarray,
    first_row: int,
) -> None:
    """Fill ``prob`` (preset to 1.0) and ``alias`` for one block of rows;
    ``first_row`` is the block's position in the batch, for the error."""
    bad = (weights <= 0) | ~np.isfinite(weights)
    if bad.any():
        row = int(np.searchsorted(row_ptr, int(np.argmax(bad)), side="right")) - 1
        raise SamplingError(
            f"alias table weights must be positive and finite (row {first_row + row})"
        )
    degrees = np.diff(row_ptr)
    row_start = np.repeat(row_ptr[:-1], degrees)
    # Block-wide slot numbers while pairing; made row-local on the way out.
    alias[:] = np.arange(weights.size, dtype=np.int64)

    scale = np.zeros(degrees.size, dtype=np.float64)
    np.divide(degrees, row_sums(weights, row_ptr), out=scale, where=degrees > 0)
    scaled = weights * np.repeat(scale, degrees)

    # Fill the stacks bottom-up in slot order, as the one-row loop does:
    # a slot's cell is its row's start plus how many slots of its own
    # kind precede it in the row.
    is_small = scaled < 1.0
    smaller_upto = np.cumsum(is_small)
    smaller_before_row = np.concatenate(([0], smaller_upto))[row_ptr]
    smaller_upto -= np.repeat(smaller_before_row[:-1], degrees)
    small_slots = np.flatnonzero(is_small)
    large_slots = np.flatnonzero(~is_small)
    small_stack = np.empty(weights.size, dtype=np.int64)
    large_stack = np.empty(weights.size, dtype=np.int64)
    small_stack[row_start[small_slots] + smaller_upto[small_slots] - 1] = small_slots
    large_stack[large_slots - smaller_upto[large_slots]] = large_slots

    # Each unfinished row's stack tops, as positions in the flat stacks.
    small_height = np.diff(smaller_before_row)
    rows = np.flatnonzero((small_height > 0) & (small_height < degrees))
    base = row_ptr[rows]
    small_top = base + small_height[rows]
    large_top = row_ptr[rows + 1] - small_height[rows]
    while rows.size >= _LOCKSTEP_MIN_ROWS:
        small_top -= 1
        large_top -= 1
        lo = small_stack[small_top]
        hi = large_stack[large_top]
        given = scaled[lo]
        prob[lo] = given
        alias[lo] = hi
        left = (scaled[hi] + given) - 1.0
        scaled[hi] = left
        # The donor goes back on the stack its remainder belongs to.  The
        # large stack's popped cell still holds it; writing it to the
        # small stack's popped cell is harmless when that stack's top
        # does not move back over it.
        to_small = left < 1.0
        small_stack[small_top] = hi
        small_top += to_small
        large_top += ~to_small
        unfinished = (small_top > base) & (large_top > base)
        if not unfinished.all():
            rows, base = rows[unfinished], base[unfinished]
            small_top, large_top = small_top[unfinished], large_top[unfinished]

    for start, end, small_end, large_end in zip(
        base.tolist(), row_ptr[rows + 1].tolist(), small_top.tolist(), large_top.tolist()
    ):
        paired, donors, given = _finish_row(
            scaled[start:end].tolist(),
            (small_stack[start:small_end] - start).tolist(),
            (large_stack[start:large_end] - start).tolist(),
        )
        paired = np.array(paired, dtype=np.int64) + start
        prob[paired] = given
        alias[paired] = np.array(donors, dtype=np.int64) + start
    alias -= row_start


def _finish_row(
    left: list[float], small: list[int], large: list[int]
) -> tuple[list[int], list[int], list[float]]:
    """Run one row's remaining pairings from its current stacks.

    ``left`` is the row's scaled mass per slot and the stacks hold
    row-local slot indices; returns the slots paired off, their donors
    and the mass each kept, in pairing order.
    """
    paired, donors, given = [], [], []
    while small and large:
        lo = small.pop()
        hi = large.pop()
        mass = left[lo]
        paired.append(lo)
        donors.append(hi)
        given.append(mass)
        mass = (left[hi] + mass) - 1.0
        left[hi] = mass
        if mass < 1.0:
            small.append(hi)
        else:
            large.append(hi)
    return paired, donors, given


def build_alias_slots(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build one alias table for a single weight vector — the one-row
    call of :func:`build_alias_rows`.

    Returns ``(prob, alias)`` arrays of the same length as ``weights``.
    Raises :class:`SamplingError` for empty or non-positive weights.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0:
        raise SamplingError("cannot build an alias table for an empty weight vector")
    return build_alias_rows(weights, np.array([0, weights.size], dtype=np.int64))


def build_alias_table(graph: CSRGraph) -> AliasTable:
    """Build flat per-vertex alias tables for a graph.

    Unweighted graphs get uniform tables (every slot accepts, aliasing to
    itself), which keeps the DeepWalk datapath identical for both cases,
    exactly as the hardware's template-based graph representation does.
    """
    if not graph.is_weighted:
        return AliasTable(
            prob=np.ones(graph.num_edges, dtype=np.float64),
            alias=within_row_index(graph.row_ptr),
        )
    prob, alias = build_alias_rows(graph.weights, graph.row_ptr)
    return AliasTable(prob=prob, alias=alias)


def alias_expected_distribution(graph: CSRGraph, vertex: int) -> np.ndarray:
    """The exact neighbor distribution an alias table should realize.

    Used by tests to verify statistical correctness of alias sampling.
    """
    weights = graph.neighbor_weights(vertex)
    if weights.size == 0:
        raise SamplingError(f"vertex {vertex} has no neighbors")
    return weights / weights.sum()
