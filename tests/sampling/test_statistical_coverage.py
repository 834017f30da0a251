"""Statistical-coverage fills: rejection under skewed p/q, ITS flat-CDF.

Two gaps this suite closes with the shared chi-square goodness-of-fit
helper (``stat_helpers.assert_chi_square_fit`` — one critical-value
floor for the whole statistical tier, no per-file thresholds):

* the **rejection sampler** was only ever exercised at the paper's
  ``p=2, q=0.5``; acceptance-probability skew is worst at extreme p/q,
  where a biased retry loop would hide.  Both the scalar sampler and the
  vectorized kernel are held to Node2Vec's exact one-hop distribution
  across skewed parameter corners.
* the **ITS flat-CDF fast path** (prepared rows) vs the per-draw
  ``cumsum`` path: bit-identical draws on a shared stream, and both —
  plus the vectorized :class:`ITSKernel` — fitting the exact weighted
  distribution on skewed rows.

All seeds are pinned; the sample-heavy scalar loops carry the ``slow``
marker and run only in the full CI lane.
"""

import numpy as np
import pytest
from row_oracles import row_index
from stall_helpers import sample_decided
from stat_helpers import assert_chi_square_fit

from repro.graph import from_edges
from repro.sampling import (
    InverseTransformSampler,
    NumpyRandomSource,
    QueryStreams,
    RejectionSampler,
    StepContext,
    exact_distribution,
)
from repro.sampling.vectorized import ITSKernel, RejectionKernel
from repro.walks.node2vec import exact_step_distribution

#: Skewed Node2Vec corners: return-averse, return-seeking, explore-averse.
PQ_CORNERS = ((0.25, 4.0), (4.0, 0.25), (2.0, 0.5), (10.0, 10.0))

SCALAR_SAMPLES = 20_000
KERNEL_SAMPLES = 40_000


def node2vec_graph():
    """Previous vertex 0, current vertex 1, and a neighbor mix covering
    all three bias classes: return (0), adjacent (2, 3), explore (4, 5)."""
    edges = [
        (0, 1), (0, 2), (0, 3),
        (1, 0), (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 1), (3, 1), (4, 1), (5, 1),
    ]
    return from_edges(edges, num_vertices=6)


def skewed_weighted_row():
    """One row with a dominant edge and a long light tail."""
    degree = 8
    weights = [50.0, 0.5, 4.0, 0.25, 1.0, 8.0, 0.125, 2.0]
    edges = [(0, dst) for dst in range(1, degree + 1)]
    return from_edges(edges, num_vertices=degree + 1, weights=weights)


@pytest.mark.slow
@pytest.mark.parametrize("p,q", PQ_CORNERS)
def test_scalar_rejection_fits_exact_distribution_under_skew(p, q):
    graph = node2vec_graph()
    sampler = RejectionSampler(p=p, q=q)
    source = NumpyRandomSource(np.random.default_rng((hash((p, q)) & 0xFFFF, 71)))
    context = StepContext(vertex=1, prev_vertex=0)
    counts = np.zeros(graph.degree(1))
    for _ in range(SCALAR_SAMPLES):
        counts[sampler.sample(graph, context, source).index] += 1
    assert_chi_square_fit(
        counts,
        exact_step_distribution(graph, 1, 0, p, q),
        label=f"scalar rejection p={p} q={q}",
    )


@pytest.mark.parametrize("p,q", PQ_CORNERS)
def test_rejection_kernel_fits_exact_distribution_under_skew(p, q):
    graph = node2vec_graph()
    kernel = RejectionKernel(p=p, q=q)
    kernel.prepare(graph)
    streams = QueryStreams(int(p * 100 + q), np.arange(KERNEL_SAMPLES))
    current = np.full(KERNEL_SAMPLES, 1, dtype=np.int64)
    batch = sample_decided(
        kernel,
        graph,
        current,
        np.zeros(KERNEL_SAMPLES, dtype=np.int64),
        None,
        streams,
        np.arange(KERNEL_SAMPLES),
    )
    counts = np.bincount(row_index(graph, current, batch.vertex), minlength=graph.degree(1))
    assert_chi_square_fit(
        counts,
        exact_step_distribution(graph, 1, 0, p, q),
        label=f"rejection kernel p={p} q={q}",
    )


class TestITSFlatCDF:
    def test_prepared_and_unprepared_draws_bit_identical(self):
        """Same stream, same graph: the flat-CDF fast path must pick the
        same index with the same read accounting as the per-draw cumsum."""
        graph = skewed_weighted_row()
        prepared = InverseTransformSampler()
        prepared.prepare(graph)
        unprepared = InverseTransformSampler()
        src_a = NumpyRandomSource(np.random.default_rng(5))
        src_b = NumpyRandomSource(np.random.default_rng(5))
        context = StepContext(vertex=0)
        for _ in range(2_000):
            a = prepared.sample(graph, context, src_a)
            b = unprepared.sample(graph, context, src_b)
            assert (a.index, a.proposals, a.neighbor_reads) == (
                b.index, b.proposals, b.neighbor_reads,
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("path", ("flat-cdf", "per-draw-cumsum"))
    def test_scalar_paths_fit_exact_distribution(self, path):
        graph = skewed_weighted_row()
        sampler = InverseTransformSampler()
        if path == "flat-cdf":
            sampler.prepare(graph)
        source = NumpyRandomSource(np.random.default_rng(31))
        context = StepContext(vertex=0)
        counts = np.zeros(graph.degree(0))
        for _ in range(SCALAR_SAMPLES):
            counts[sampler.sample(graph, context, source).index] += 1
        assert_chi_square_fit(
            counts, exact_distribution(graph, 0), label=f"ITS {path}",
        )

    def test_its_kernel_fits_exact_distribution(self):
        graph = skewed_weighted_row()
        kernel = ITSKernel()
        kernel.prepare(graph)
        streams = QueryStreams(17, np.arange(KERNEL_SAMPLES))
        current = np.zeros(KERNEL_SAMPLES, dtype=np.int64)
        batch = kernel.sample(
            graph,
            current,
            np.full(KERNEL_SAMPLES, -1, dtype=np.int64),
            None,
            streams,
            np.arange(KERNEL_SAMPLES),
        )
        counts = np.bincount(row_index(graph, current, batch.vertex), minlength=graph.degree(0))
        assert_chi_square_fit(
            counts, exact_distribution(graph, 0), label="ITS kernel",
        )

    def test_its_kernel_read_accounting_matches_scalar(self):
        """The vectorized kernel must charge the sequential-scan cost
        (``index + 1`` reads per draw), like the scalar sampler."""
        graph = skewed_weighted_row()
        kernel = ITSKernel()
        kernel.prepare(graph)
        n = 512
        streams = QueryStreams(3, np.arange(n))
        current = np.zeros(n, dtype=np.int64)
        batch = kernel.sample(
            graph,
            current,
            np.full(n, -1, dtype=np.int64),
            None,
            streams,
            np.arange(n),
        )
        assert batch.proposals == n
        assert batch.neighbor_reads == int(row_index(graph, current, batch.vertex).sum()) + n
