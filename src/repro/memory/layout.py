"""Degree-aware graph memory layout (paper Figure 4b).

The CSR graph is mapped onto channels exactly as Section IV-B describes:

* the **row pointer array is partitioned** across the Row Access channels
  (vertex ``v``'s RP entry lives in row channel ``v mod N``);
* the **column list is element-interleaved** across the Column Access
  channels ("Interleaved Shared Memory" in Figure 4b): element ``e`` of
  the global CL array lives on channel ``e mod N``.  This is what keeps
  hub vertices from hot-spotting one channel — a hub's neighbor list
  spans every channel, and the randomly sampled index lands uniformly;
* each **RP entry encodes the column channel id and starting address**
  of the neighbor list, so Column Access needs no extra lookup — the
  Task Router reads the channel id straight out of the entry.

The layout also fixes per-entry widths.  Table I makes the RP entry
width algorithm-dependent (64b uniform / 128b reservoir / 256b alias);
column-list entries are 64-bit vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import MemoryModelError
from repro.graph.csr import CSRGraph

#: Knuth multiplicative hash constant (64-bit golden ratio).
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RowPointerEntry:
    """Decoded RP entry: what one Row Access response carries."""

    degree: int
    column_channel: int
    column_address: int


class GraphMemoryLayout:
    """Mapping from graph structure to channels and addresses.

    Parameters
    ----------
    graph:
        The CSR graph being laid out.
    num_row_channels, num_column_channels:
        How many channels each array is spread over (one of each per
        pipeline in the default RidgeWalker configuration).
    rp_entry_bits:
        Row-pointer entry width (Table I; depends on the sampler).
    """

    def __init__(
        self,
        graph: CSRGraph,
        num_row_channels: int,
        num_column_channels: int,
        rp_entry_bits: int = 64,
        replicate_hot_entries: int | None = None,
    ) -> None:
        if num_row_channels < 1 or num_column_channels < 1:
            raise MemoryModelError("channel counts must be >= 1")
        if rp_entry_bits not in (64, 128, 256):
            raise MemoryModelError(
                f"rp_entry_bits must be one of 64/128/256 (Table I), got {rp_entry_bits}"
            )
        self.graph = graph
        self.num_row_channels = num_row_channels
        self.num_column_channels = num_column_channels
        self.rp_entry_bits = rp_entry_bits
        # Degree-aware replication: RP entries are read-only and tiny, so
        # the layout stores copies of the hottest (highest in-degree)
        # vertices' entries in *every* row channel; a reader then serves
        # them from its own home channel.  This is what keeps a single
        # celebrity vertex from serializing one channel — the "degree-
        # aware" part of Figure 4's graph memory.  Cost: K entries of
        # extra capacity per channel, no coherence (read-only).
        if replicate_hot_entries is None:
            replicate_hot_entries = max(64, graph.num_vertices // 64)
        if replicate_hot_entries < 0:
            raise MemoryModelError("replicate_hot_entries must be >= 0")
        self.replicate_hot_entries = min(replicate_hot_entries, graph.num_vertices)
        if self.replicate_hot_entries and graph.num_edges:
            in_degree = np.bincount(graph.col, minlength=graph.num_vertices)
            hottest = np.argsort(in_degree)[::-1][: self.replicate_hot_entries]
            self._replicated = frozenset(int(v) for v in hottest)
        else:
            self._replicated = frozenset()

    # ------------------------------------------------------------------
    # Channel placement
    # ------------------------------------------------------------------
    def row_channel(self, vertex: int, home_channel: int | None = None) -> int:
        """Row Access channel serving ``vertex``'s RP entry.

        The row pointer array is *randomly* partitioned (Section IV-B:
        "the CSR graph is randomly partitioned and distributed across all
        HBM channels") — a multiplicative hash of the vertex id, so that
        structured id patterns (RMAT's hot low-bit ids, for instance)
        cannot align with a channel.  Replicated hot entries are served
        from the reader's ``home_channel`` when one is given.
        """
        self._check_vertex(vertex)
        if home_channel is not None and vertex in self._replicated:
            self._check_row_channel(home_channel)
            return home_channel
        hashed = (vertex * _HASH_MULTIPLIER) & _MASK64
        return int(hashed >> 24) % self.num_row_channels

    def is_replicated(self, vertex: int) -> bool:
        """Whether this vertex's RP entry is replicated on every channel."""
        self._check_vertex(vertex)
        return vertex in self._replicated

    def column_channel(self, vertex: int) -> int:
        """Column Access channel holding the *start* of ``vertex``'s
        neighbor list (element-interleaved: later elements round-robin
        onward from here)."""
        self._check_vertex(vertex)
        return self.column_channel_of(int(self.graph.row_ptr[vertex]))

    def column_channel_of(self, element_index: int) -> int:
        """Channel holding global column-list element ``element_index``.

        Element-granularity interleaving: consecutive CL elements cycle
        through the column channels, so a random sampled index maps to a
        near-uniform channel — the round-robin shuffle of Section IV-B.
        """
        if element_index < 0:
            raise MemoryModelError(f"element index must be >= 0, got {element_index}")
        return element_index % self.num_column_channels

    # ------------------------------------------------------------------
    # Entry decoding and sizes
    # ------------------------------------------------------------------
    def row_entry(self, vertex: int) -> RowPointerEntry:
        """Decode the RP entry for ``vertex`` (Figure 4b's packed word)."""
        self._check_vertex(vertex)
        return RowPointerEntry(
            degree=self.graph.degree(vertex),
            column_channel=self.column_channel(vertex),
            column_address=int(self.graph.row_ptr[vertex]),
        )

    # ------------------------------------------------------------------
    # Decode tables: the answers above for every vertex, as lists indexed
    # by vertex id, for a reader that needs one per hop.  They skip the
    # range checks: a walk's vertex ids come from the graph itself.
    # ------------------------------------------------------------------
    def row_channel_table(self, home_channel: int | None = None) -> list[int]:
        """:meth:`row_channel` of every vertex for one ``home_channel``."""
        ids = np.arange(self.graph.num_vertices, dtype=np.uint64)
        # uint64 products wrap modulo 2**64, which is the scalar ``& _MASK64``.
        hashed = ids * np.uint64(_HASH_MULTIPLIER)
        table = ((hashed >> np.uint64(24)) % np.uint64(self.num_row_channels)).tolist()
        if home_channel is not None:
            self._check_row_channel(home_channel)
            for vertex in self._replicated:
                table[vertex] = home_channel
        return table

    @cached_property
    def row_entries(self) -> tuple[list[int], list[int], list[int]]:
        """:meth:`row_entry` of every vertex, as ``(degree, column_channel,
        column_address)`` lists; built once, shared by every reader."""
        starts = self.graph.row_ptr[:-1]
        return (
            self.graph.degrees().tolist(),
            (starts % self.num_column_channels).tolist(),
            starts.tolist(),
        )

    def rp_entry_words(self) -> int:
        """RP entry size in 64-bit words (burst length of one row access)."""
        return self.rp_entry_bits // 64

    def row_partition_bytes(self, channel: int) -> int:
        """Bytes of RP data stored in one row channel (hash partition)."""
        self._check_row_channel(channel)
        entries = sum(
            1
            for v in range(self.graph.num_vertices)
            if self.row_channel(v) == channel
        )
        return entries * self.rp_entry_bits // 8

    def column_partition_bytes(self, channel: int) -> int:
        """Bytes of CL data stored in one column channel.

        Element interleaving spreads the array to within one element per
        channel, independent of the degree distribution.
        """
        self._check_column_channel(channel)
        m = self.graph.num_edges
        n = self.num_column_channels
        elements = (m - channel + n - 1) // n if channel < m else 0
        return elements * 8

    def column_load_balance(self) -> float:
        """max/mean bytes across column channels (1.0 = perfectly even)."""
        sizes = [self.column_partition_bytes(c) for c in range(self.num_column_channels)]
        mean = sum(sizes) / len(sizes)
        if mean == 0:
            return 1.0
        return max(sizes) / mean

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.graph.num_vertices:
            raise MemoryModelError(
                f"vertex {vertex} out of range for {self.graph.num_vertices} vertices"
            )

    def _check_row_channel(self, channel: int) -> None:
        if not 0 <= channel < self.num_row_channels:
            raise MemoryModelError(f"row channel {channel} out of range")

    def _check_column_channel(self, channel: int) -> None:
        if not 0 <= channel < self.num_column_channels:
            raise MemoryModelError(f"column channel {channel} out of range")
