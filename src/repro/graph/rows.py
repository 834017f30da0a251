"""Row-segmented array primitives over ``(values, row_ptr)``.

A batch of rows is a flat ``values`` array plus a ``row_ptr`` of
``len(rows) + 1`` offsets — a whole CSR graph (every row) and the dirty
rows of one dynamic snapshot have the same shape, so the sampler-state
builders written against it (:func:`repro.graph.alias.build_alias_rows`,
:func:`row_sums`, :func:`row_cumsums`,
:func:`repro.sampling.hybrid.select_row_strategies`) serve the full and
the incremental build unchanged.

Reductions run on **degree buckets**: rows of equal degree ``d`` are
gathered into one C-contiguous ``(k, d)`` matrix and reduced along the
contiguous axis, which applies numpy's 1-D routine to each row — so
``sum(axis=1)`` reproduces ``row.sum()`` (pairwise) and
``cumsum(axis=1)`` reproduces ``np.cumsum(row)`` (sequential) bit for
bit.  ``np.add.reduceat`` sums sequentially and does *not* match the
pairwise totals the samplers scale by.  Rows of degree 0 belong to no
bucket: every builder skips them.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_INDEX_DTYPE = np.int64


def degree_buckets(
    row_ptr: np.ndarray, min_degree: int = 1
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(rows, index)`` per distinct degree ``d >= min_degree``.

    ``rows`` are the batch-local indices of the rows of that degree and
    ``index`` the ``(len(rows), d)`` matrix of their positions in the
    flat value array, so ``values[index]`` is the bucket's row matrix.
    """
    degrees = np.diff(row_ptr)
    order = np.argsort(degrees, kind="stable")
    ordered = degrees[order]
    first = int(np.searchsorted(ordered, min_degree, side="left"))
    widths, lows = np.unique(ordered[first:], return_index=True)
    bounds = [*(lows + first).tolist(), ordered.size]
    for width, lo, hi in zip(widths.tolist(), bounds, bounds[1:]):
        rows = order[lo:hi]
        yield rows, row_ptr[rows][:, None] + np.arange(width, dtype=_INDEX_DTYPE)


def row_sums(values: np.ndarray, row_ptr: np.ndarray) -> np.ndarray:
    """Per-row ``values[lo:hi].sum()`` (numpy's pairwise sum); 0.0 for
    empty rows."""
    totals = np.zeros(row_ptr.size - 1, dtype=np.float64)
    for rows, index in degree_buckets(row_ptr):
        totals[rows] = values[index].sum(axis=1)
    return totals


def row_cumsums(values: np.ndarray, row_ptr: np.ndarray) -> np.ndarray:
    """Flat per-row ``np.cumsum(values[lo:hi])``, aligned with ``values``."""
    out = np.empty(values.size, dtype=np.float64)
    for _, index in degree_buckets(row_ptr):
        out[index] = values[index].cumsum(axis=1)
    return out


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
