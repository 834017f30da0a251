"""Statistical-coverage fills: rejection under skewed p/q, weighted rows
under skewed weights.

Two gaps this suite closes with the shared chi-square goodness-of-fit
helper (``stat_helpers.assert_chi_square_fit`` — one critical-value
floor for the whole statistical tier, no per-file thresholds):

* the **rejection sampler** was only ever exercised at the paper's
  ``p=2, q=0.5``; acceptance-probability skew is worst at extreme p/q,
  where a biased retry loop would hide.  Both the scalar sampler and the
  vectorized kernel are held to Node2Vec's exact one-hop distribution
  across skewed parameter corners.
* the **weighted samplers** (alias, reservoir) on rows whose weights are
  skewed: a dominant edge with a long light tail, and one dominant edge
  placed first or last — where an off-by-one in an alias slot or a
  reservoir's tie and replacement rule would hide.  Kernels and scalar
  samplers alike are held to ``w / sum(w)``, and each kernel charges the
  reads its scalar sampler charges.

All seeds are pinned; the sample-heavy scalar loops carry the ``slow``
marker and run only in the full CI lane.
"""

import numpy as np
import pytest
from row_oracles import row_index
from stall_helpers import sample_decided
from stat_helpers import assert_chi_square_fit

from repro.graph import from_edges
from repro.graph.alias import alias_expected_distribution
from repro.sampling import (
    AliasSampler,
    QueryStream,
    QueryStreams,
    RejectionSampler,
    ReservoirSampler,
    UniformSampler,
)
from repro.sampling.vectorized import RejectionKernel, make_kernel, stream_states
from repro.walks.node2vec import exact_step_distribution

#: Skewed Node2Vec corners: return-averse, return-seeking, explore-averse.
PQ_CORNERS = ((0.25, 4.0), (4.0, 0.25), (2.0, 0.5), (10.0, 10.0))

SCALAR_SAMPLES = 20_000
KERNEL_SAMPLES = 40_000


def stream_source(seed, query_id=0):
    """The reference engine's random source: one query's stream."""
    return QueryStream(stream_states(seed, [query_id])[0])


def node2vec_graph():
    """Previous vertex 0, current vertex 1, and a neighbor mix covering
    all three bias classes: return (0), adjacent (2, 3), explore (4, 5)."""
    edges = [
        (0, 1), (0, 2), (0, 3),
        (1, 0), (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 1), (3, 1), (4, 1), (5, 1),
    ]
    return from_edges(edges, num_vertices=6)


@pytest.mark.slow
@pytest.mark.parametrize("p,q", PQ_CORNERS)
def test_scalar_rejection_fits_exact_distribution_under_skew(p, q):
    graph = node2vec_graph()
    sampler = RejectionSampler(p=p, q=q)
    source = stream_source(hash((p, q)) & 0xFFFF, 71)
    counts = np.zeros(graph.degree(1))
    for _ in range(SCALAR_SAMPLES):
        counts[sampler.draw(graph, 1, graph.degree(1), 0, None, source)[0]] += 1
    assert_chi_square_fit(
        counts,
        exact_step_distribution(graph, 1, 0, p, q),
        label=f"scalar rejection p={p} q={q}",
    )


@pytest.mark.parametrize("p,q", PQ_CORNERS)
def test_rejection_kernel_fits_exact_distribution_under_skew(p, q):
    graph = node2vec_graph()
    kernel = RejectionKernel(RejectionSampler(p=p, q=q))
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



#: Skewed weighted rows, one per archetype a weighted draw branches on.
SKEWED_ROWS = {
    "light-tail": [50.0, 0.5, 4.0, 0.25, 1.0, 8.0, 0.125, 2.0],
    "dominant-first": [100.0] + [1.0] * 7,
    "dominant-last": [1.0] * 7 + [100.0],
}

#: The first-order samplers a weighted row is drawn with.
WEIGHTED_SAMPLERS = {"alias": AliasSampler, "reservoir": ReservoirSampler}


def weighted_row(weights):
    """Vertex 0 with one out-edge per weight."""
    edges = [(0, dst) for dst in range(1, len(weights) + 1)]
    return from_edges(edges, num_vertices=len(weights) + 1, weights=weights)


def kernel_draws(sampler, graph, n, seed):
    """``n`` first-order draws at vertex 0 through ``sampler``'s kernel."""
    kernel = make_kernel(sampler)
    kernel.prepare(graph)
    current = np.zeros(n, dtype=np.int64)
    batch = sample_decided(kernel, graph, current, np.full(n, -1, dtype=np.int64), None,
                           QueryStreams(seed, np.arange(n)), np.arange(n))
    return current, batch


@pytest.mark.parametrize("row", SKEWED_ROWS)
@pytest.mark.parametrize("name", WEIGHTED_SAMPLERS)
def test_weighted_kernel_fits_exact_distribution_on_skewed_rows(name, row):
    graph = weighted_row(SKEWED_ROWS[row])
    current, batch = kernel_draws(WEIGHTED_SAMPLERS[name](), graph, KERNEL_SAMPLES, seed=17)
    counts = np.bincount(row_index(graph, current, batch.vertex), minlength=graph.degree(0))
    assert_chi_square_fit(counts, alias_expected_distribution(graph, 0),
                          label=f"{name} kernel on the {row} row")


@pytest.mark.slow
@pytest.mark.parametrize("name", WEIGHTED_SAMPLERS)
def test_scalar_weighted_sampler_fits_exact_distribution(name):
    graph = weighted_row(SKEWED_ROWS["light-tail"])
    sampler = WEIGHTED_SAMPLERS[name]()
    sampler.prepare(graph)
    source = stream_source(31)
    counts = np.zeros(graph.degree(0))
    for _ in range(SCALAR_SAMPLES):
        counts[sampler.draw(graph, 0, graph.degree(0), -1, None, source)[0]] += 1
    assert_chi_square_fit(counts, alias_expected_distribution(graph, 0),
                          label=f"scalar {name}")


def test_uniform_kernel_ignores_the_weights():
    graph = weighted_row(SKEWED_ROWS["light-tail"])
    current, batch = kernel_draws(UniformSampler(), graph, KERNEL_SAMPLES, seed=19)
    counts = np.bincount(row_index(graph, current, batch.vertex), minlength=graph.degree(0))
    assert_chi_square_fit(counts, np.full(graph.degree(0), 1.0 / graph.degree(0)),
                          label="uniform kernel on a weighted row")


@pytest.mark.parametrize("make_sampler", [UniformSampler, AliasSampler, ReservoirSampler],
                         ids=lambda make: make.name)
def test_kernel_read_accounting_matches_scalar(make_sampler):
    """A kernel charges, draw for draw, the proposals and neighbor reads
    its scalar sampler charges: one read for uniform, slot plus neighbor
    for alias, the whole row for reservoir."""
    graph = weighted_row(SKEWED_ROWS["light-tail"])
    n = 512
    _, batch = kernel_draws(make_sampler(), graph, n, seed=3)
    sampler = make_sampler()
    sampler.prepare(graph)
    source = stream_source(3)
    draws = [sampler.draw(graph, 0, graph.degree(0), -1, None, source) for _ in range(n)]
    assert batch.proposals == sum(proposals for _, proposals, _ in draws)
    assert batch.neighbor_reads == sum(reads for _, _, reads in draws)
