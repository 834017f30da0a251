"""Constructing :class:`~repro.graph.csr.CSRGraph` from common inputs.

The builders accept edge lists, dense adjacency matrices and adjacency
dictionaries.  They all normalise to CSR with vertices ``0..n-1`` and
deterministic neighbor order (sorted by destination unless asked to keep
input order), which keeps simulations reproducible run to run.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.rows import run_heads, stable_order


def validate_edge_weights(
    weights: np.ndarray,
    src: np.ndarray | None = None,
    dst: np.ndarray | None = None,
) -> None:
    """Reject negative, zero, NaN or infinite edge weights up front.

    ``CSRGraph`` validates its weight array too, but by then the edges
    have been reordered, so the error cannot name the offending *input*
    edge.  The builders (and the dynamic-graph update path) call this
    before any reordering; the message points at the first bad edge so a
    corrupt ingest fails loudly instead of producing alias tables built
    from garbage.
    """
    weights = np.asarray(weights)
    if weights.size == 0:
        return
    bad = ~np.isfinite(weights) | (weights <= 0)
    if not bad.any():
        return
    index = int(np.nonzero(bad)[0][0])
    value = float(weights[index]) if np.isfinite(weights[index]) else weights[index]
    where = f"edge {index}"
    if src is not None and dst is not None:
        where = f"edge {index} ({int(src[index])} -> {int(dst[index])})"
    raise GraphError(
        f"edge weights must be strictly positive and finite; {where} has "
        f"weight {value}"
    )


#: Largest id space whose ``src * num_vertices + dst`` keys fit int64
#: (3,037,000,499).
_MAX_KEYED_VERTICES = math.isqrt(2**63 - 1)


def from_edges(
    edges: Iterable[tuple[int, int]],
    num_vertices: int | None = None,
    weights: Sequence[float] | None = None,
    edge_types: Sequence[int] | None = None,
    vertex_types: Sequence[int] | None = None,
    directed: bool = True,
    dedupe: bool = False,
    sort_neighbors: bool = True,
    name: str = "graph",
) -> CSRGraph:
    """Build a CSR graph from an iterable of ``(src, dst)`` pairs.

    One sort of the int64 keys ``src * num_vertices + dst`` builds the
    CSR.  Without per-edge attributes and with ``sort_neighbors`` the
    key *values* are sorted, duplicates dropped by one adjacent
    comparison and the endpoints decoded back from the keys — no
    permutation exists.  With weights or edge types the one
    :func:`~repro.graph.rows.stable_order` of the keys is the ``(src,
    dst)`` order with input order inside a run of equal pairs, so the
    head of each run is its first occurrence and every array is
    gathered once; ``sort_neighbors=False`` puts those first occurrences
    back in input order and takes the stable order of ``src`` alone.
    The keys must fit int64, so ``num_vertices`` may not exceed
    ``isqrt(2**63 - 1)`` = 3,037,000,499.

    Parameters
    ----------
    edges:
        Directed edge pairs, or an ``(m, 2)`` integer array (a
        transposed ``(2, m)`` array is read column by column without a
        copy).  With ``directed=False`` each pair also adds the reverse
        edge (weights/types are duplicated onto it).
    num_vertices:
        Total vertex count; inferred as ``max id + 1`` when omitted.
    weights, edge_types:
        Optional per-edge attributes aligned with ``edges``.
    dedupe:
        Drop duplicate ``(src, dst)`` pairs, keeping the first occurrence.
    sort_neighbors:
        Sort each neighbor list by destination id for determinism;
        otherwise a neighbor list keeps input order.
    """
    edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edge_array.size == 0:
        edge_array = edge_array.reshape(0, 2)
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise GraphError("edges must be a sequence of (src, dst) pairs")
    src, dst = edge_array[:, 0], edge_array[:, 1]
    if edge_array.dtype.kind not in "iu" or edge_array.dtype.itemsize == 8:
        # Narrower integer ids stay as they are: the key multiply by the
        # int64 stride widens them (uint64 would promote to float64).
        src, dst = src.astype(np.int64, copy=False), dst.astype(np.int64, copy=False)

    weight_array = None if weights is None else np.asarray(weights, dtype=np.float64)
    type_array = None if edge_types is None else np.asarray(edge_types, dtype=np.int16)
    if weight_array is not None and weight_array.size != src.size:
        raise GraphError("weights must align with edges")
    if weight_array is not None:
        validate_edge_weights(weight_array, src, dst)
    if type_array is not None and type_array.size != src.size:
        raise GraphError("edge_types must align with edges")

    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if weight_array is not None:
            weight_array = np.concatenate([weight_array, weight_array])
        if type_array is not None:
            type_array = np.concatenate([type_array, type_array])

    if src.size and (src.min() < 0 or dst.min() < 0):
        raise GraphError("vertex ids must be non-negative")

    if num_vertices is None:
        num_vertices = int(max(src.max(), dst.max())) + 1 if src.size else 0
    elif src.size and max(src.max(), dst.max()) >= num_vertices:
        raise GraphError(
            f"edge endpoint exceeds num_vertices={num_vertices}: "
            f"max id {int(max(src.max(), dst.max()))}"
        )
    if num_vertices > _MAX_KEYED_VERTICES:
        raise GraphError(
            f"num_vertices={num_vertices} exceeds {_MAX_KEYED_VERTICES}: "
            "src * num_vertices + dst edge keys would overflow int64"
        )

    # Ids are checked into [0, num_vertices) above, so every key lies in
    # [0, stride**2) and sorts in (src, dst) order.
    stride = np.int64(max(num_vertices, 1))
    if sort_neighbors and weight_array is None and type_array is None:
        keys = src * stride
        keys += dst
        keys.sort()
        if dedupe:
            keys = keys[run_heads(keys)]
        src = keys // stride
        dst = keys
        dst -= src * stride
    else:
        src, dst = src.astype(np.int64, copy=False), dst.astype(np.int64, copy=False)
        order = _edge_order(src, dst, stride, dedupe, sort_neighbors)
        src, dst = src[order], dst[order]
        if weight_array is not None:
            weight_array = weight_array[order]
        if type_array is not None:
            type_array = type_array[order]

    row_ptr = np.zeros(num_vertices + 1, dtype=np.int64)
    if src.size:
        counts = np.bincount(src, minlength=num_vertices)
        np.cumsum(counts, out=row_ptr[1:])

    vtype_array = None if vertex_types is None else np.asarray(vertex_types, dtype=np.int16)
    return CSRGraph(
        row_ptr=row_ptr,
        col=dst,
        weights=weight_array,
        edge_types=type_array,
        vertex_types=vtype_array,
        name=name,
    )


def _edge_order(
    src: np.ndarray, dst: np.ndarray, stride: np.int64, dedupe: bool, sort_neighbors: bool
) -> np.ndarray:
    """The permutation that lays edges out row by row: rows ascending,
    a row by destination (``sort_neighbors``) or in input order, equal
    pairs in input order and only the first of them kept (``dedupe``)."""
    if not (dedupe or sort_neighbors):
        return stable_order(src, stride)
    keys = src * stride + dst
    order = stable_order(keys, int(stride) ** 2)
    if dedupe:
        order = order[run_heads(keys[order])]
    if sort_neighbors:
        return order
    # First occurrences back in input order, then row by row.
    first = np.zeros(src.size, dtype=bool)
    first[order] = True
    first = np.flatnonzero(first)
    return first[stable_order(src[first], stride)]


def from_adjacency(matrix: np.ndarray, name: str = "graph") -> CSRGraph:
    """Build a CSR graph from a dense adjacency matrix.

    Non-zero entries become edges; if the matrix is not strictly 0/1 the
    entry values become edge weights (mirroring Figure 2's adjacency view).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise GraphError("adjacency matrix must be square")
    src, dst = np.nonzero(matrix)
    values = matrix[src, dst].astype(np.float64)
    weighted = bool(values.size) and not np.allclose(values, 1.0)
    return from_edges(
        np.stack([src, dst], axis=1),
        num_vertices=matrix.shape[0],
        weights=values if weighted else None,
        name=name,
    )


def from_adjacency_dict(
    adjacency: Mapping[int, Sequence[int]],
    num_vertices: int | None = None,
    name: str = "graph",
) -> CSRGraph:
    """Build a CSR graph from ``{src: [dst, ...]}`` mappings."""
    edges: list[tuple[int, int]] = []
    for src, neighbors in adjacency.items():
        for dst in neighbors:
            edges.append((int(src), int(dst)))
    if num_vertices is None and adjacency:
        max_key = max(int(k) for k in adjacency)
        max_val = max((int(v) for vs in adjacency.values() for v in vs), default=-1)
        num_vertices = max(max_key, max_val) + 1
    return from_edges(edges, num_vertices=num_vertices, name=name)


def paper_example_graph() -> CSRGraph:
    """The five-vertex example graph from Figure 2 of the paper.

    Vertices are ``v1..v5`` mapped to ids ``0..4``.  ``RP = [0, 3, 7, 9, ...]``
    in the paper uses 1-based labels; the shape here matches the figure:
    ``v1 -> {v2, v4, v5}``, ``v2 -> {v1, v4, v5, ...}`` etc.
    """
    adjacency = {
        0: [1, 3, 4],  # v1 -> v2, v4, v5
        1: [0, 3, 4],  # v2 -> v1, v4, v5
        2: [],  # v3 has no outgoing edges (early termination example)
        3: [1, 4],  # v4 -> v2, v5
        4: [0, 1, 2],  # v5 -> v1, v2, v3
    }
    return from_adjacency_dict(adjacency, num_vertices=5, name="paper-example")
