"""Compressed sparse row (CSR) graph representation.

This is the substrate every other subsystem builds on.  It mirrors the
layout in Figure 2 of the paper: a row-pointer array ``RP`` of length
``|V| + 1`` and a column-list array ``CL`` of length ``|E|``, so that the
neighbors of vertex ``v`` occupy ``CL[RP[v]:RP[v+1]]``.  Optional parallel
arrays carry edge weights (weighted GRWs such as DeepWalk on weighted
graphs), edge types (MetaPath), and vertex types (MetaPath node schemas).

The class is immutable after construction; ``with_weights`` returns a
new instance.  Arrays are stored
as numpy with fixed dtypes so that memory footprints and address arithmetic
in :mod:`repro.memory.layout` are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import GraphError

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.float64
_TYPE_DTYPE = np.int16


@dataclass(frozen=True, eq=False)
class CSRGraph:
    """An immutable directed graph in CSR form.

    Parameters
    ----------
    row_ptr:
        ``int64`` array of length ``num_vertices + 1``; monotonically
        non-decreasing, ``row_ptr[0] == 0`` and ``row_ptr[-1] == num_edges``.
    col:
        ``int64`` array of neighbor vertex ids, length ``num_edges``.
    weights:
        Optional ``float64`` array of positive edge weights aligned with
        ``col``.  ``None`` means the graph is unweighted.
    edge_types:
        Optional ``int16`` array of edge-type labels aligned with ``col``
        (used by MetaPath walks).
    vertex_types:
        Optional ``int16`` array of vertex-type labels, length
        ``num_vertices`` (used by MetaPath walks).
    name:
        Human-readable label used in benchmark reports.
    """

    row_ptr: np.ndarray
    col: np.ndarray
    weights: np.ndarray | None = None
    edge_types: np.ndarray | None = None
    vertex_types: np.ndarray | None = None
    name: str = "graph"
    _degrees: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _cols_sorted: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self) -> None:
        row_ptr = np.ascontiguousarray(self.row_ptr, dtype=_INDEX_DTYPE)
        col = np.ascontiguousarray(self.col, dtype=_INDEX_DTYPE)
        object.__setattr__(self, "row_ptr", row_ptr)
        object.__setattr__(self, "col", col)
        if self.weights is not None:
            object.__setattr__(
                self, "weights", np.ascontiguousarray(self.weights, dtype=_WEIGHT_DTYPE)
            )
        if self.edge_types is not None:
            object.__setattr__(
                self, "edge_types", np.ascontiguousarray(self.edge_types, dtype=_TYPE_DTYPE)
            )
        if self.vertex_types is not None:
            object.__setattr__(
                self, "vertex_types", np.ascontiguousarray(self.vertex_types, dtype=_TYPE_DTYPE)
            )
        self._validate()
        degrees = np.diff(row_ptr)
        object.__setattr__(self, "_degrees", degrees)
        object.__setattr__(self, "_cols_sorted", self._check_cols_sorted())
        for array in (row_ptr, col, self.weights, self.edge_types, self.vertex_types, degrees):
            if array is not None:
                array.setflags(write=False)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.row_ptr.ndim != 1 or self.col.ndim != 1:
            raise GraphError("row_ptr and col must be one-dimensional arrays")
        if self.row_ptr.size == 0:
            raise GraphError("row_ptr must have at least one entry")
        if self.row_ptr[0] != 0:
            raise GraphError(f"row_ptr[0] must be 0, got {int(self.row_ptr[0])}")
        if np.any(np.diff(self.row_ptr) < 0):
            raise GraphError("row_ptr must be monotonically non-decreasing")
        if int(self.row_ptr[-1]) != self.col.size:
            raise GraphError(
                f"row_ptr[-1] ({int(self.row_ptr[-1])}) must equal the number of "
                f"edges ({self.col.size})"
            )
        n = self.num_vertices
        if self.col.size and (self.col.min() < 0 or self.col.max() >= n):
            raise GraphError(
                f"column indices must lie in [0, {n}); found range "
                f"[{int(self.col.min())}, {int(self.col.max())}]"
            )
        if self.weights is not None:
            if self.weights.shape != self.col.shape:
                raise GraphError("weights must align with col")
            if self.weights.size and not np.all(np.isfinite(self.weights)):
                raise GraphError("weights must be finite")
            if self.weights.size and self.weights.min() <= 0:
                raise GraphError("weights must be strictly positive")
        if self.edge_types is not None and self.edge_types.shape != self.col.shape:
            raise GraphError("edge_types must align with col")
        if self.vertex_types is not None and self.vertex_types.shape != (n,):
            raise GraphError("vertex_types must have one entry per vertex")

    def _check_cols_sorted(self) -> bool:
        """Whether every neighbor list is ascending (one vectorized pass)."""
        if self.col.size < 2:
            return True
        non_decreasing = np.diff(self.col) >= 0
        # Descents are allowed exactly where a new neighbor list starts.
        segment_starts = self.row_ptr[1:-1]
        breaks = np.zeros(self.col.size - 1, dtype=bool)
        interior = segment_starts[(segment_starts > 0) & (segment_starts < self.col.size)]
        breaks[interior - 1] = True
        return bool(np.all(non_decreasing | breaks))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self.row_ptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self.col.size

    @property
    def is_weighted(self) -> bool:
        """Whether the graph carries edge weights."""
        return self.weights is not None

    @property
    def has_edge_types(self) -> bool:
        """Whether the graph carries edge-type labels (MetaPath)."""
        return self.edge_types is not None

    def degree(self, vertex: int) -> int:
        """Out-degree of ``vertex``."""
        self._check_vertex(vertex)
        return int(self._degrees[vertex])

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (read-only ``int64`` array)."""
        return self._degrees

    def neighbors(self, vertex: int) -> np.ndarray:
        """Neighbor list of ``vertex`` as a read-only array view."""
        self._check_vertex(vertex)
        return self.col[self.row_ptr[vertex] : self.row_ptr[vertex + 1]]

    def neighbor_weights(self, vertex: int) -> np.ndarray:
        """Edge weights of ``vertex``'s out-edges.

        For unweighted graphs, returns a unit-weight array of matching
        length so samplers can treat both cases uniformly.
        """
        self._check_vertex(vertex)
        lo, hi = int(self.row_ptr[vertex]), int(self.row_ptr[vertex + 1])
        if self.weights is None:
            return np.ones(hi - lo, dtype=_WEIGHT_DTYPE)
        return self.weights[lo:hi]

    def neighbor_edge_types(self, vertex: int) -> np.ndarray:
        """Edge-type labels of ``vertex``'s out-edges."""
        if self.edge_types is None:
            raise GraphError("graph has no edge types")
        self._check_vertex(vertex)
        return self.edge_types[self.row_ptr[vertex] : self.row_ptr[vertex + 1]]

    @property
    def cols_sorted(self) -> bool:
        """Whether every neighbor list is ascending (checked once at
        construction); enables O(log d) adjacency probes."""
        return self._cols_sorted

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether the directed edge ``src -> dst`` exists.

        O(log d) binary search when neighbor lists are sorted (the default
        for every builder in this repo), O(d) scan otherwise.  GRW
        rejection sampling (Node2Vec) calls this on the hot path; note the
        samplers still charge the cost models the honest O(d) bounded-scan
        read count the hardware performs, independent of how this lookup
        is implemented.
        """
        self._check_vertex(src)
        lo, hi = int(self.row_ptr[src]), int(self.row_ptr[src + 1])
        if lo == hi:
            return False
        if self._cols_sorted:
            pos = lo + int(np.searchsorted(self.col[lo:hi], dst))
            return pos < hi and int(self.col[pos]) == dst
        return bool(np.any(self.col[lo:hi] == dst))

    def dangling_fraction(self) -> float:
        """Fraction of vertices with zero out-degree."""
        if self.num_vertices == 0:
            return 0.0
        return float(np.count_nonzero(self._degrees == 0)) / self.num_vertices

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range for graph with {self.num_vertices} vertices"
            )

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_weights(self, weights: Sequence[float] | np.ndarray) -> "CSRGraph":
        """Return a copy of this graph carrying the given edge weights."""
        return CSRGraph(
            row_ptr=self.row_ptr,
            col=self.col,
            weights=np.asarray(weights, dtype=_WEIGHT_DTYPE),
            edge_types=self.edge_types,
            vertex_types=self.vertex_types,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Size accounting (used by the memory layout and FastRW cache model)
    # ------------------------------------------------------------------
    def row_pointer_bytes(self, rp_entry_bits: int = 64) -> int:
        """Size of the row-pointer array at the given per-entry width.

        The paper's RP entry is configurable (Table I): 64 bits for
        uniform/rejection sampling, 128 for reservoir, 256 for alias
        tables.
        """
        if rp_entry_bits % 8:
            raise GraphError(f"rp_entry_bits must be a multiple of 8, got {rp_entry_bits}")
        return self.num_vertices * rp_entry_bits // 8

    def column_list_bytes(self, entry_bits: int = 64) -> int:
        """Size of the column-list array at the given per-entry width."""
        if entry_bits % 8:
            raise GraphError(f"entry_bits must be a multiple of 8, got {entry_bits}")
        return self.num_edges * entry_bits // 8

    def total_bytes(self, rp_entry_bits: int = 64, cl_entry_bits: int = 64) -> int:
        """Total CSR footprint in bytes."""
        return self.row_pointer_bytes(rp_entry_bits) + self.column_list_bytes(cl_entry_bits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flags = []
        if self.is_weighted:
            flags.append("weighted")
        if self.has_edge_types:
            flags.append("typed")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}{suffix})"
        )
