"""One-row reference implementations for the row-segmented builders.

These are the per-row loops the builders in ``repro.graph.rows`` and
``repro.graph.alias`` replaced, kept here
as the oracles their property tests compare against — the arithmetic is
unchanged, so the comparison is exact equality, not a tolerance.
"""

import numpy as np


def vose_row(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's algorithm for one non-empty weight vector, scalar loop."""
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.size
    scaled = weights * (n / weights.sum())
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        lo = small.pop()
        hi = large.pop()
        prob[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        if scaled[hi] < 1.0:
            small.append(hi)
        else:
            large.append(hi)
    return prob, alias


def vose_rows(weights: np.ndarray, row_ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`vose_row` over every non-empty row, concatenated."""
    prob = np.ones(weights.size, dtype=np.float64)
    alias = np.zeros(weights.size, dtype=np.int64)
    for lo, hi in zip(row_ptr[:-1].tolist(), row_ptr[1:].tolist()):
        if hi > lo:
            prob[lo:hi], alias[lo:hi] = vose_row(weights[lo:hi])
    return prob, alias


def sum_rows(weights: np.ndarray, row_ptr: np.ndarray) -> np.ndarray:
    return np.array(
        [weights[lo:hi].sum() if hi > lo else 0.0
         for lo, hi in zip(row_ptr[:-1].tolist(), row_ptr[1:].tolist())],
        dtype=np.float64,
    )


def pack_slots_scalar(prob, alias, row_ptr, col) -> list[tuple[float, int, int]]:
    """``pack_alias_slots`` one slot at a time: ``(prob, col, alias_col)``
    per edge, ``alias_col`` the neighbour at the slot's alias index."""
    records = []
    for lo, hi in zip(row_ptr[:-1].tolist(), row_ptr[1:].tolist()):
        for slot in range(lo, hi):
            records.append((float(prob[slot]), int(col[slot]), int(col[lo + int(alias[slot])])))
    return records


def row_index(graph, current, vertex) -> np.ndarray:
    """Within-row index of neighbour ``vertex[k]`` in row ``current[k]``
    (``-1`` stays ``-1``), by ``searchsorted`` in the row — for kernel
    tests that reason about positions while kernels return vertex ids.
    Needs ascending rows without repeated neighbours."""
    assert graph.cols_sorted
    n = graph.num_vertices
    sources = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    keys = sources * n + graph.col
    position = np.searchsorted(keys, current * n + np.maximum(vertex, 0))
    assert np.array_equal(keys[position[vertex >= 0]], (current * n + vertex)[vertex >= 0])
    return np.where(vertex >= 0, position - graph.row_ptr[current], -1)


def csr_from_edges(
    edges,
    num_vertices,
    weights=None,
    edge_types=None,
    directed=True,
    dedupe=False,
    sort_neighbors=True,
) -> tuple[list[int], list[int], list[float] | None, list[int] | None]:
    """``from_edges`` one edge at a time over a dict of lists.

    Returns ``(row_ptr, col, weights, edge_types)`` as plain lists.  The
    reverse edges of an undirected list follow every forward edge, a
    duplicate pair is dropped when an earlier one was seen (``dedupe``,
    so the first occurrence's attributes win), and a row keeps arrival
    order unless ``sort_neighbors`` orders it by destination — equal
    destinations staying in arrival order.
    """
    records = [
        (int(src), int(dst),
         None if weights is None else float(weights[i]),
         None if edge_types is None else int(edge_types[i]))
        for i, (src, dst) in enumerate(edges)
    ]
    if not directed:
        records += [(dst, src, weight, kind) for src, dst, weight, kind in records]
    rows: dict[int, list[tuple]] = {vertex: [] for vertex in range(num_vertices)}
    seen: set[tuple[int, int]] = set()
    for src, dst, weight, kind in records:
        if dedupe and (src, dst) in seen:
            continue
        seen.add((src, dst))
        rows[src].append((dst, weight, kind))
    row_ptr, col, out_weights, out_types = [0], [], [], []
    for vertex in range(num_vertices):
        row = rows[vertex]
        if sort_neighbors:
            row = sorted(row, key=lambda entry: entry[0])  # stable
        col += [entry[0] for entry in row]
        out_weights += [entry[1] for entry in row]
        out_types += [entry[2] for entry in row]
        row_ptr.append(len(col))
    return (
        row_ptr,
        col,
        None if weights is None else out_weights,
        None if edge_types is None else out_types,
    )
