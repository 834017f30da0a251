"""Degree-aware graph memory layout (paper Figure 4b).

The CSR graph is mapped onto channels exactly as Section IV-B describes:

* the **row pointer array is hash-partitioned** across the Row Access
  channels (:meth:`GraphMemoryLayout.row_channel`), with the hottest
  vertices' entries replicated on every row channel;
* the **column list is element-interleaved** across the Column Access
  channels ("Interleaved Shared Memory" in Figure 4b): element ``e`` of
  the global CL array lives on channel ``e mod N``.  This is what keeps
  hub vertices from hot-spotting one channel — a hub's neighbor list
  spans every channel, and the randomly sampled index lands uniformly.
  The Column Access route computes that channel from the sampled
  element itself, so the RP entry carries only the degree and the
  list's starting address.

The layout also fixes the RP entry width.  Table I makes it
algorithm-dependent (64b uniform / 128b reservoir / 256b alias).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import MemoryModelError
from repro.graph.csr import CSRGraph

#: Knuth multiplicative hash constant (64-bit golden ratio).
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class GraphMemoryLayout:
    """Mapping from graph structure to channels and addresses.

    Parameters
    ----------
    graph:
        The CSR graph being laid out.
    num_channels:
        Channels in each group: the row pointer array is spread over
        ``num_channels`` Row Access channels and the column list over as
        many Column Access channels (one of each per pipeline).
    rp_entry_bits:
        Row-pointer entry width (Table I; depends on the sampler).
    """

    def __init__(self, graph: CSRGraph, num_channels: int, rp_entry_bits: int = 64) -> None:
        if num_channels < 1:
            raise MemoryModelError("channel count must be >= 1")
        if rp_entry_bits not in (64, 128, 256):
            raise MemoryModelError(
                f"rp_entry_bits must be one of 64/128/256 (Table I), got {rp_entry_bits}"
            )
        self.graph = graph
        self.num_channels = num_channels
        self.rp_entry_bits = rp_entry_bits
        # Degree-aware replication: RP entries are read-only and tiny, so
        # the layout stores copies of the hottest (highest in-degree)
        # vertices' entries in *every* row channel; a reader then serves
        # them from its own home channel.  This is what keeps a single
        # celebrity vertex from serializing one channel — the "degree-
        # aware" part of Figure 4's graph memory.  Cost: K entries of
        # extra capacity per channel, no coherence (read-only).  Ties at
        # the cutoff in-degree go to the lower vertex id: a stable sort,
        # not the host's SIMD one, whose tie order depends on the CPU.
        replicated = min(max(64, graph.num_vertices // 64), graph.num_vertices)
        if graph.num_edges:
            in_degree = np.bincount(graph.col, minlength=graph.num_vertices)
            hottest = np.argsort(-in_degree, kind="stable")[:replicated]
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
        if home_channel is not None:
            self._check_row_channel(home_channel)
            if vertex in self._replicated:
                return home_channel
        hashed = (vertex * _HASH_MULTIPLIER) & _MASK64
        return int(hashed >> 24) % self.num_channels

    # ------------------------------------------------------------------
    # Decode tables: per-vertex answers as lists indexed by vertex id,
    # for a reader that needs one per hop.  They skip the range checks:
    # a walk's vertex ids come from the graph itself.
    # ------------------------------------------------------------------
    def row_channel_table(self, home_channel: int | None = None) -> list[int]:
        """:meth:`row_channel` of every vertex for one ``home_channel``."""
        ids = np.arange(self.graph.num_vertices, dtype=np.uint64)
        # uint64 products wrap modulo 2**64, which is the scalar ``& _MASK64``.
        hashed = ids * np.uint64(_HASH_MULTIPLIER)
        table = ((hashed >> np.uint64(24)) % np.uint64(self.num_channels)).tolist()
        if home_channel is not None:
            self._check_row_channel(home_channel)
            for vertex in self._replicated:
                table[vertex] = home_channel
        return table

    @cached_property
    def row_entries(self) -> tuple[list[int], list[int]]:
        """Every vertex's decoded RP entry, as ``(degree, column_address)``
        lists; built once, shared by every reader."""
        return self.graph.degrees().tolist(), self.graph.row_ptr[:-1].tolist()

    def rp_entry_words(self) -> int:
        """RP entry size in 64-bit words (burst length of one row access)."""
        return self.rp_entry_bits // 64

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.graph.num_vertices:
            raise MemoryModelError(
                f"vertex {vertex} out of range for {self.graph.num_vertices} vertices"
            )

    def _check_row_channel(self, channel: int) -> None:
        if not 0 <= channel < self.num_channels:
            raise MemoryModelError(f"row channel {channel} out of range")
