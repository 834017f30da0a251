"""Inverse-transform sampling — the textbook weighted baseline.

Not in Table I's accelerator configurations, but used by CPU engines
(ThunderRW offers it) and by our test suite as an independent oracle for
the weighted samplers: alias and reservoir sampling must converge to the
same neighbor distribution ITS realizes by construction.

The sampler has two equivalent paths.  Unprepared, each draw computes
its row's CDF on the fly (the original behaviour).  Prepared —
:meth:`InverseTransformSampler.prepare` or a state hand-off via
:meth:`load_state` — the flat per-vertex CDF rows built by
:func:`build_its_cdf` are scanned in place, skipping the per-draw
``cumsum``.  The two paths are **bit-identical** (same index, same reads
accounting), which is what lets the dynamic-graph subsystem maintain
these CDF rows incrementally (:mod:`repro.dynamic.state`) and hand them
to a sampler without changing a single draw.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.graph.rows import row_cumsums, row_sums, within_row_index
from repro.sampling.base import RandomSource, SampleOutcome, Sampler, StepContext


def build_its_cdf(graph: CSRGraph) -> np.ndarray:
    """Flat per-vertex CDF rows, aligned with the CSR column list.

    ``cdf[RP[v] + i]`` is the running weight total of vertex ``v``'s
    first ``i + 1`` out-edges — exactly the ``np.cumsum`` the unprepared
    sampler computes per draw (sequential float64 accumulation, so the
    prefix sums match bit for bit; see :func:`repro.graph.rows.row_cumsums`).
    Unweighted rows are the exact integers ``1..deg(v)``.
    """
    if not graph.is_weighted:
        return (within_row_index(graph.row_ptr) + 1).astype(np.float64)
    return row_cumsums(graph.weights, graph.row_ptr)


def build_its_row_totals(graph: CSRGraph) -> np.ndarray:
    """Per-vertex total out-weight, length ``|V|``.

    Each row's ``weights[lo:hi].sum()`` — numpy's *pairwise* summation
    (:func:`repro.graph.rows.row_sums`), deliberately **not** the CDF's
    sequential last entry: the two can differ in the final ulp at higher
    degrees, and the unprepared sampler scales its target by the pairwise
    sum (see :meth:`InverseTransformSampler.sample`).  Bit-identity
    between the prepared and unprepared paths requires reproducing that
    choice.
    """
    if not graph.is_weighted:
        return graph.degrees().astype(np.float64)
    return row_sums(graph.weights, graph.row_ptr)


class InverseTransformSampler(Sampler):
    """Weighted sampling by prefix-sum CDF scan (O(d) per draw)."""

    rp_entry_bits = 64
    name = "inverse-transform"

    def __init__(self) -> None:
        self._cdf: np.ndarray | None = None
        self._row_totals: np.ndarray | None = None
        self._prepared_row_ptr: np.ndarray | None = None

    def prepare(self, graph: CSRGraph) -> None:
        """Build the flat CDF rows once so draws skip the per-row cumsum."""
        self.load_state(build_its_cdf(graph), build_its_row_totals(graph), graph)

    def load_state(
        self, cdf: np.ndarray, row_totals: np.ndarray, graph: CSRGraph
    ) -> None:
        """Adopt externally maintained CDF state (e.g. a dynamic
        snapshot's incrementally updated rows) for ``graph``."""
        if cdf.shape != (graph.num_edges,):
            raise SamplingError("its_cdf must align with the column list")
        if row_totals.shape != (graph.num_vertices,):
            raise SamplingError("its_row_totals must have one entry per vertex")
        self._cdf = cdf
        self._row_totals = row_totals
        # Identity of the row-pointer array marks which graph the state
        # belongs to; sampling against any other graph falls back to the
        # unprepared per-draw path instead of reading foreign offsets.
        self._prepared_row_ptr = graph.row_ptr

    def sample(
        self,
        graph: CSRGraph,
        context: StepContext,
        random_source: RandomSource,
    ) -> SampleOutcome:
        degree = self._require_degree(graph, context.vertex)
        if self._cdf is not None and self._prepared_row_ptr is graph.row_ptr:
            lo = int(graph.row_ptr[context.vertex])
            cumulative = self._cdf[lo : lo + degree]
            total = float(self._row_totals[context.vertex])
        else:
            weights = graph.neighbor_weights(context.vertex)
            # cumsum + searchsorted replaces the Python accumulation loop
            # with two array ops.  np.cumsum sums float64 sequentially (no
            # pairwise reordering), so the prefix sums match the scalar
            # loop's running total bit-for-bit; the target keeps the
            # loop's own scaling — ``weights.sum()`` (NumPy pairwise),
            # *not* ``cumulative[-1]`` (sequential) — because the two
            # totals can differ in the last ulp at higher degrees, which
            # would flip draws landing exactly on a CDF boundary.
            cumulative = np.cumsum(weights, dtype=np.float64)
            total = float(weights.sum())
        target = random_source.uniform() * total
        # First entry whose running total exceeds the target, i.e. the
        # scalar loop's "target < cumulative" exit.
        index = int(np.searchsorted(cumulative, target, side="right"))
        if index >= degree:
            # Floating point round-off can leave target == total; take the
            # last (the scalar loop fell off the scan having read all).
            index = degree - 1
        # neighbor_reads keeps the sequential-scan accounting: a CDF scan
        # that stops at ``index`` has read ``index + 1`` weights.  The
        # baseline cost models consume this, so neither the vectorization
        # nor the prepared rows may change what a "read" means.
        return SampleOutcome(index=index, proposals=1, neighbor_reads=index + 1)


def exact_distribution(graph: CSRGraph, vertex: int) -> np.ndarray:
    """The neighbor distribution ITS realizes (weights normalized)."""
    weights = graph.neighbor_weights(vertex)
    return weights / weights.sum()
