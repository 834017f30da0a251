"""Row-segmented array primitives over ``(values, row_ptr)``.

A batch of rows is a flat ``values`` array plus a ``row_ptr`` of
``len(rows) + 1`` offsets — a whole CSR graph (every row) and the dirty
rows of one dynamic snapshot have the same shape, so the sampler-state
builders written against it (:func:`repro.graph.alias.build_alias_rows`
and the :func:`row_sums` it scales by) serve the full and the
incremental build unchanged.

Reductions run on **degree buckets**: rows of equal degree ``d`` are
gathered into one C-contiguous ``(k, d)`` matrix and reduced along the
contiguous axis, which applies numpy's 1-D routine to each row — so
``sum(axis=1)`` reproduces ``row.sum()`` (pairwise) bit for bit.
``np.add.reduceat`` sums sequentially and does *not* match the
pairwise totals the alias builder scales by.  Rows of degree 0 belong
to no bucket: every builder skips them.

:func:`stable_order` is the one sort the ingest path and the dynamic
row merge take a permutation from: keys bounded by the id space are
ordered by a *value* sort of ``(key << bits) | position``, which on keys
in no particular order numpy runs 8-10x faster than
``argsort(kind="stable")`` (56 -> 7 ms at 500k keys; on keys that are
already nearly sorted the adaptive ``argsort`` is level with it).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphError

_INDEX_DTYPE = np.int64


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """The stable ascending permutation of ``keys``, all in ``[0, bound)``.

    Equal to ``np.argsort(keys, kind="stable")``.  When ``bound - 1``
    and the largest position together fit 63 bits, each key is packed
    with its position as ``(key << bits) | position`` and the packed
    *values* are sorted — positions break ties, which is stability, and
    the low ``bits`` of the sorted values are the permutation.  Wider
    keys take the one fallback, ``argsort(kind="stable")``.  A key
    outside ``[0, bound)`` would pack into a wrong order, so it raises.
    """
    keys = np.asarray(keys, dtype=_INDEX_DTYPE)
    if keys.size == 0:
        return np.empty(0, dtype=_INDEX_DTYPE)
    if keys.min() < 0 or keys.max() >= bound:
        raise GraphError(
            f"stable_order keys must lie in [0, {bound}); "
            f"got {int(keys.min())}..{int(keys.max())}"
        )
    bits = (keys.size - 1).bit_length()
    if (int(bound) - 1).bit_length() + bits > 63:
        return np.argsort(keys, kind="stable")
    packed = keys << bits
    packed |= np.arange(keys.size, dtype=_INDEX_DTYPE)
    packed.sort()
    packed &= (1 << bits) - 1
    return packed


def run_heads(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal sorted values."""
    heads = np.ones(sorted_values.size, dtype=bool)
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=heads[1:])
    return heads


def segment_last_argmax(
    values: np.ndarray, starts: np.ndarray, segment: np.ndarray
) -> np.ndarray:
    """Flat index of the last maximum of every segment of ``values``.

    Segment ``i`` begins at ``starts[i]`` (ascending; every segment holds
    at least one entry) and ``segment[j]`` names the segment of entry
    ``j``.  The winner is the entry a stable sort by ``(segment, value)``
    puts last — ties go to the later entry — found with two
    ``np.maximum.reduceat`` passes and no sort: the segment maxima, then
    the largest index that holds its segment's maximum.
    """
    top = np.maximum.reduceat(values, starts)
    holders = np.where(
        values == top[segment], np.arange(values.size, dtype=_INDEX_DTYPE), -1
    )
    return np.maximum.reduceat(holders, starts)


def degree_buckets(row_ptr: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(rows, index)`` per distinct nonzero degree ``d``.

    ``rows`` are the batch-local indices of the rows of that degree and
    ``index`` the ``(len(rows), d)`` matrix of their positions in the
    flat value array, so ``values[index]`` is the bucket's row matrix.
    """
    degrees = np.diff(row_ptr)
    order = stable_order(degrees, int(degrees.max(initial=0)) + 1)
    ordered = degrees[order]
    first = int(np.searchsorted(ordered, 1, side="left"))
    lows = np.flatnonzero(run_heads(ordered[first:])) + first
    bounds = [*lows.tolist(), ordered.size]
    for width, lo, hi in zip(ordered[lows].tolist(), bounds, bounds[1:]):
        rows = order[lo:hi]
        yield rows, row_ptr[rows][:, None] + np.arange(width, dtype=_INDEX_DTYPE)


def row_sums(values: np.ndarray, row_ptr: np.ndarray) -> np.ndarray:
    """Per-row ``values[lo:hi].sum()`` (numpy's pairwise sum); 0.0 for
    empty rows."""
    totals = np.zeros(row_ptr.size - 1, dtype=np.float64)
    for rows, index in degree_buckets(row_ptr):
        totals[rows] = values[index].sum(axis=1)
    return totals


def within_row_index(row_ptr: np.ndarray) -> np.ndarray:
    """Each slot's index inside its own row (``0..deg-1`` per row)."""
    return np.arange(int(row_ptr[-1]), dtype=_INDEX_DTYPE) - np.repeat(
        row_ptr[:-1], np.diff(row_ptr)
    )


def gather_rows(row_ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Select ``rows`` of a segmented array as a compact batch.

    Returns ``(positions, batch_ptr)``: the flat positions of the chosen
    rows' slots, row after row in the order given, and the ``len(rows) +
    1`` offsets of the compact batch — ``values[positions]`` with
    ``batch_ptr`` is a batch any builder here accepts, and
    ``out[positions] = built`` scatters its result back.
    """
    degrees = (row_ptr[1:] - row_ptr[:-1])[rows]
    batch_ptr = np.zeros(rows.size + 1, dtype=_INDEX_DTYPE)
    np.cumsum(degrees, out=batch_ptr[1:])
    positions = np.repeat(row_ptr[:-1][rows], degrees) + within_row_index(batch_ptr)
    return positions, batch_ptr
