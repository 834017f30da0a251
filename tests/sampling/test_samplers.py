"""Unit tests for all Table I samplers.

Each sampler is checked against the exact neighbor distribution it must
realize, plus its cost-counter contract and error handling.
"""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph import from_edges
from repro.graph.alias import alias_expected_distribution, build_alias_table
from repro.sampling import (
    AliasSampler,
    NumpyRandomSource,
    RejectionSampler,
    ReservoirSampler,
    StepContext,
    UniformSampler,
)
from repro.walks.node2vec import exact_step_distribution

SAMPLES = 30_000
TOLERANCE = 0.02


def rng_source(seed=0):
    return NumpyRandomSource(np.random.default_rng(seed))


def weighted_fan():
    """Vertex 0 with weighted out-edges to 1..4."""
    return from_edges(
        [(0, 1), (0, 2), (0, 3), (0, 4)],
        weights=[1.0, 2.0, 3.0, 4.0],
        num_vertices=5,
    )


def empirical(sampler, graph, context, seed=0, samples=SAMPLES):
    source = rng_source(seed)
    degree = graph.degree(context.vertex)
    counts = np.zeros(degree)
    for _ in range(samples):
        outcome = sampler.sample(graph, context, source)
        counts[outcome.index] += 1
    return counts / samples


class TestUniformSampler:
    def test_uniform_distribution(self):
        g = weighted_fan()
        dist = empirical(UniformSampler(), g, StepContext(vertex=0))
        assert np.allclose(dist, 0.25, atol=TOLERANCE)

    def test_cost_counters(self):
        g = weighted_fan()
        outcome = UniformSampler().sample(g, StepContext(vertex=0), rng_source())
        assert outcome.proposals == 1
        assert outcome.neighbor_reads == 1

    def test_dangling_vertex_rejected(self):
        g = from_edges([(0, 1)], num_vertices=2)
        with pytest.raises(SamplingError, match="dangling"):
            UniformSampler().sample(g, StepContext(vertex=1), rng_source())

    def test_rp_entry_bits(self):
        assert UniformSampler().rp_entry_bits == 64


class TestAliasSampler:
    def test_requires_prepare(self):
        g = weighted_fan()
        with pytest.raises(SamplingError, match="prepare"):
            AliasSampler().sample(g, StepContext(vertex=0), rng_source())

    def test_weighted_distribution(self):
        g = weighted_fan()
        sampler = AliasSampler()
        sampler.prepare(g)
        dist = empirical(sampler, g, StepContext(vertex=0))
        assert np.allclose(dist, alias_expected_distribution(g, 0), atol=TOLERANCE)

    def test_unweighted_degenerates_to_uniform(self):
        g = from_edges([(0, 1), (0, 2), (0, 3)], num_vertices=4)
        sampler = AliasSampler()
        sampler.prepare(g)
        dist = empirical(sampler, g, StepContext(vertex=0))
        assert np.allclose(dist, 1 / 3, atol=TOLERANCE)

    def test_constant_cost(self):
        g = weighted_fan()
        sampler = AliasSampler()
        sampler.prepare(g)
        outcome = sampler.sample(g, StepContext(vertex=0), rng_source())
        assert outcome.neighbor_reads == 2  # alias slot + chosen neighbor

    def test_rp_entry_bits_is_256(self):
        assert AliasSampler().rp_entry_bits == 256

    def test_agrees_with_reservoir_sampler(self):
        """Two independent weighted samplers realize one distribution."""
        g = weighted_fan()
        alias = AliasSampler()
        alias.prepare(g)
        d_alias = empirical(alias, g, StepContext(vertex=0), seed=1)
        d_reservoir = empirical(ReservoirSampler(), g, StepContext(vertex=0), seed=2)
        assert np.allclose(d_alias, d_reservoir, atol=2 * TOLERANCE)

    def test_given_table_draws_like_a_prepared_one(self):
        g = weighted_fan()
        given = AliasSampler(build_alias_table(g))
        prepared = AliasSampler()
        prepared.prepare(g)
        source_a, source_b = rng_source(5), rng_source(5)
        for _ in range(500):
            a = given.sample(g, StepContext(vertex=0), source_a)
            b = prepared.sample(g, StepContext(vertex=0), source_b)
            assert (a.index, a.neighbor_reads) == (b.index, b.neighbor_reads)

    def test_prepare_rebuilds_for_the_latest_graph(self):
        """A second ``prepare`` replaces the tables, so the sampler
        draws by the new graph's weights, not the first one's."""
        first = weighted_fan()
        second = from_edges([(0, 1), (0, 2), (0, 3), (0, 4)],
                            weights=[8.0, 1.0, 1.0, 0.5], num_vertices=5)
        sampler = AliasSampler()
        sampler.prepare(first)
        sampler.prepare(second)
        expected = build_alias_table(second)
        assert np.array_equal(sampler.table.prob, expected.prob)
        assert np.array_equal(sampler.table.alias, expected.alias)
        dist = empirical(sampler, second, StepContext(vertex=0))
        assert np.allclose(dist, alias_expected_distribution(second, 0), atol=TOLERANCE)


class TestRejectionSampler:
    def diamond(self):
        # 0 <-> 1, 1 -> {0, 2, 3}, 2 adjacent to 0, 3 not.
        return from_edges(
            [(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (3, 1)],
            num_vertices=4,
        )

    def test_first_hop_is_uniform(self):
        g = self.diamond()
        dist = empirical(RejectionSampler(p=2, q=0.5), g, StepContext(vertex=1))
        assert np.allclose(dist, 1 / 3, atol=TOLERANCE)

    def test_second_order_matches_exact(self):
        g = self.diamond()
        p, q = 2.0, 0.5
        context = StepContext(vertex=1, prev_vertex=0)
        dist = empirical(RejectionSampler(p=p, q=q), g, context)
        expected = exact_step_distribution(g, current=1, previous=0, p=p, q=q)
        assert np.allclose(dist, expected, atol=TOLERANCE)

    def test_extreme_p_suppresses_return(self):
        g = self.diamond()
        context = StepContext(vertex=1, prev_vertex=0)
        dist = empirical(RejectionSampler(p=1000.0, q=1.0), g, context, samples=5000)
        # neighbor 0 (the return edge) should almost never be chosen
        return_index = list(g.neighbors(1)).index(0)
        assert dist[return_index] < 0.01

    def test_first_hop_accepts_immediately(self):
        # Regression: the degenerate-uniform first hop (bias 1.0 for every
        # candidate) used to accept with probability 1/max_bias, spinning
        # through rejected proposals and inflating the cost counters.
        g = self.diamond()
        sampler = RejectionSampler(p=100.0, q=0.001)  # max_bias = 1000
        source = rng_source(7)
        for _ in range(50):
            outcome = sampler.sample(g, StepContext(vertex=1), source)
            assert outcome.proposals == 1
            assert outcome.neighbor_reads == 1

    def test_proposals_counted(self):
        g = self.diamond()
        context = StepContext(vertex=1, prev_vertex=0)
        sampler = RejectionSampler(p=10.0, q=10.0)
        total = 0
        source = rng_source(3)
        for _ in range(200):
            total += sampler.sample(g, context, source).proposals
        assert total > 200  # some rejections must occur with strong bias

    def test_rejects_bad_parameters(self):
        with pytest.raises(SamplingError):
            RejectionSampler(p=0.0, q=1.0)
        with pytest.raises(SamplingError):
            RejectionSampler(p=1.0, q=-2.0)


class TestReservoirSampler:
    def test_weighted_distribution(self):
        g = weighted_fan()
        dist = empirical(ReservoirSampler(), g, StepContext(vertex=0))
        assert np.allclose(dist, alias_expected_distribution(g, 0), atol=TOLERANCE)

    def test_unweighted_uniform(self):
        g = from_edges([(0, 1), (0, 2)], num_vertices=3)
        dist = empirical(ReservoirSampler(), g, StepContext(vertex=0))
        assert np.allclose(dist, 0.5, atol=TOLERANCE)

    def test_node2vec_bias_matches_exact(self):
        g = from_edges(
            [(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (3, 1)],
            num_vertices=4,
        )
        p, q = 2.0, 0.5
        context = StepContext(vertex=1, prev_vertex=0)
        dist = empirical(ReservoirSampler(p=p, q=q), g, context)
        expected = exact_step_distribution(g, current=1, previous=0, p=p, q=q)
        assert np.allclose(dist, expected, atol=TOLERANCE)

    def test_type_filter_restricts_choices(self):
        g = from_edges(
            [(0, 1), (0, 2), (0, 3)],
            edge_types=[0, 1, 0],
            num_vertices=4,
        )
        context = StepContext(vertex=0, admissible_type=0)
        dist = empirical(ReservoirSampler(), g, context, samples=4000)
        assert dist[1] == 0.0  # type-1 edge never taken
        assert np.allclose(dist[[0, 2]], 0.5, atol=0.03)

    def test_no_admissible_neighbor_terminates(self):
        g = from_edges([(0, 1)], edge_types=[0], num_vertices=2)
        outcome = ReservoirSampler().sample(
            g, StepContext(vertex=0, admissible_type=5), rng_source()
        )
        assert outcome.terminated

    def test_type_filter_without_types_rejected(self):
        g = from_edges([(0, 1)], num_vertices=2)
        with pytest.raises(SamplingError, match="edge types"):
            ReservoirSampler().sample(
                g, StepContext(vertex=0, admissible_type=0), rng_source()
            )

    def test_reads_whole_list(self):
        g = weighted_fan()
        outcome = ReservoirSampler().sample(g, StepContext(vertex=0), rng_source())
        assert outcome.neighbor_reads == g.degree(0)

    def test_p_and_q_must_come_together(self):
        with pytest.raises(SamplingError, match="together"):
            ReservoirSampler(p=2.0)


@pytest.mark.parametrize(
    "make_sampler",
    [UniformSampler, AliasSampler, lambda: RejectionSampler(p=4.0, q=0.25),
     lambda: ReservoirSampler(p=4.0, q=0.25)],
    ids=["uniform", "alias", "rejection", "reservoir"],
)
def test_a_degree_one_row_always_takes_its_edge(make_sampler):
    """Every sampler, first and second order, takes a lone edge — even
    the return edge a second-order bias discourages."""
    g = from_edges([(0, 1), (1, 0)], weights=[3.0, 1.0], num_vertices=2)
    sampler = make_sampler()
    sampler.prepare(g)
    source = rng_source(9)
    for context in (StepContext(vertex=0), StepContext(vertex=0, prev_vertex=1)):
        for _ in range(50):
            assert sampler.sample(g, context, source).index == 0
