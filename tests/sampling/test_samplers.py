"""Unit tests for all Table I samplers.

Each sampler is checked against the exact neighbor distribution it must
realize, plus its cost-counter contract and error handling.
"""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph import from_edges, rmat
from repro.graph.alias import alias_expected_distribution, build_alias_table
from repro.graph.datasets import assign_metapath_schema
from repro.sampling import (
    AliasSampler,
    QueryStream,
    QueryStreams,
    RejectionSampler,
    ReservoirSampler,
    UniformSampler,
)
from repro.sampling.vectorized import ReservoirKernel, stream_states
from repro.walks.node2vec import exact_step_distribution

SAMPLES = 30_000
TOLERANCE = 0.02


def stream_source(seed=0):
    """One query's stream, the scalar samplers' one random source."""
    return QueryStream(stream_states(seed, [0])[0])


def weighted_fan():
    """Vertex 0 with weighted out-edges to 1..4."""
    return from_edges(
        [(0, 1), (0, 2), (0, 3), (0, 4)],
        weights=[1.0, 2.0, 3.0, 4.0],
        num_vertices=5,
    )


def draw(sampler, graph, vertex, stream, previous=-1, admissible_type=None):
    """One decision at ``vertex``: ``(index, proposals, neighbor_reads)``."""
    return sampler.draw(graph, vertex, graph.degree(vertex), previous, admissible_type, stream)


def empirical(sampler, graph, vertex, previous=-1, admissible_type=None, seed=0,
              samples=SAMPLES):
    source = stream_source(seed)
    counts = np.zeros(graph.degree(vertex))
    for _ in range(samples):
        index, _, _ = draw(sampler, graph, vertex, source, previous, admissible_type)
        counts[index] += 1
    return counts / samples


class TestUniformSampler:
    def test_uniform_distribution(self):
        g = weighted_fan()
        dist = empirical(UniformSampler(), g, 0)
        assert np.allclose(dist, 0.25, atol=TOLERANCE)

    def test_cost_counters(self):
        g = weighted_fan()
        _, proposals, reads = draw(UniformSampler(), g, 0, stream_source())
        assert proposals == 1
        assert reads == 1

    def test_dangling_vertex_rejected(self):
        g = from_edges([(0, 1)], num_vertices=2)
        with pytest.raises(SamplingError, match="dangling"):
            draw(UniformSampler(), g, 1, stream_source())

    def test_rp_entry_bits(self):
        assert UniformSampler().rp_entry_bits == 64


class TestAliasSampler:
    def test_requires_prepare(self):
        g = weighted_fan()
        with pytest.raises(SamplingError, match="prepare"):
            draw(AliasSampler(), g, 0, stream_source())

    def test_weighted_distribution(self):
        g = weighted_fan()
        sampler = AliasSampler()
        sampler.prepare(g)
        dist = empirical(sampler, g, 0)
        assert np.allclose(dist, alias_expected_distribution(g, 0), atol=TOLERANCE)

    def test_unweighted_degenerates_to_uniform(self):
        g = from_edges([(0, 1), (0, 2), (0, 3)], num_vertices=4)
        sampler = AliasSampler()
        sampler.prepare(g)
        dist = empirical(sampler, g, 0)
        assert np.allclose(dist, 1 / 3, atol=TOLERANCE)

    def test_constant_cost(self):
        g = weighted_fan()
        sampler = AliasSampler()
        sampler.prepare(g)
        _, _, reads = draw(sampler, g, 0, stream_source())
        assert reads == 2  # alias slot + chosen neighbor

    def test_rp_entry_bits_is_256(self):
        assert AliasSampler().rp_entry_bits == 256

    def test_agrees_with_reservoir_sampler(self):
        """Two independent weighted samplers realize one distribution."""
        g = weighted_fan()
        alias = AliasSampler()
        alias.prepare(g)
        d_alias = empirical(alias, g, 0, seed=1)
        d_reservoir = empirical(ReservoirSampler(), g, 0, seed=2)
        assert np.allclose(d_alias, d_reservoir, atol=2 * TOLERANCE)

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
        dist = empirical(sampler, second, 0)
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
        dist = empirical(RejectionSampler(p=2, q=0.5), g, 1)
        assert np.allclose(dist, 1 / 3, atol=TOLERANCE)

    def test_second_order_matches_exact(self):
        g = self.diamond()
        p, q = 2.0, 0.5
        dist = empirical(RejectionSampler(p=p, q=q), g, 1, previous=0)
        expected = exact_step_distribution(g, current=1, previous=0, p=p, q=q)
        assert np.allclose(dist, expected, atol=TOLERANCE)

    def test_extreme_p_suppresses_return(self):
        g = self.diamond()
        dist = empirical(RejectionSampler(p=1000.0, q=1.0), g, 1, previous=0, samples=5000)
        # neighbor 0 (the return edge) should almost never be chosen
        return_index = list(g.neighbors(1)).index(0)
        assert dist[return_index] < 0.01

    def test_first_hop_accepts_immediately(self):
        # Regression: the degenerate-uniform first hop (bias 1.0 for every
        # candidate) used to accept with probability 1/max_bias, spinning
        # through rejected proposals and inflating the cost counters.
        g = self.diamond()
        sampler = RejectionSampler(p=100.0, q=0.001)  # max_bias = 1000
        source = stream_source(7)
        for _ in range(50):
            _, proposals, reads = draw(sampler, g, 1, source)
            assert proposals == 1
            assert reads == 1

    def test_proposals_counted(self):
        g = self.diamond()
        sampler = RejectionSampler(p=10.0, q=10.0)
        total = 0
        source = stream_source(3)
        for _ in range(200):
            total += draw(sampler, g, 1, source, previous=0)[1]
        assert total > 200  # some rejections must occur with strong bias

    def test_rejects_bad_parameters(self):
        with pytest.raises(SamplingError):
            RejectionSampler(p=0.0, q=1.0)
        with pytest.raises(SamplingError):
            RejectionSampler(p=1.0, q=-2.0)


class TestReservoirSampler:
    def test_weighted_distribution(self):
        g = weighted_fan()
        dist = empirical(ReservoirSampler(), g, 0)
        assert np.allclose(dist, alias_expected_distribution(g, 0), atol=TOLERANCE)

    def test_unweighted_uniform(self):
        g = from_edges([(0, 1), (0, 2)], num_vertices=3)
        dist = empirical(ReservoirSampler(), g, 0)
        assert np.allclose(dist, 0.5, atol=TOLERANCE)

    def test_node2vec_bias_matches_exact(self):
        g = from_edges(
            [(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (3, 1)],
            num_vertices=4,
        )
        p, q = 2.0, 0.5
        dist = empirical(ReservoirSampler(p=p, q=q), g, 1, previous=0)
        expected = exact_step_distribution(g, current=1, previous=0, p=p, q=q)
        assert np.allclose(dist, expected, atol=TOLERANCE)

    def test_type_filter_restricts_choices(self):
        g = from_edges(
            [(0, 1), (0, 2), (0, 3)],
            edge_types=[0, 1, 0],
            num_vertices=4,
        )
        dist = empirical(ReservoirSampler(), g, 0, admissible_type=0, samples=4000)
        assert dist[1] == 0.0  # type-1 edge never taken
        assert np.allclose(dist[[0, 2]], 0.5, atol=0.03)

    def test_no_admissible_neighbor_terminates(self):
        g = from_edges([(0, 1)], edge_types=[0], num_vertices=2)
        index, _, _ = draw(ReservoirSampler(), g, 0, stream_source(), admissible_type=5)
        assert index == -1

    def test_type_filter_without_types_rejected(self):
        g = from_edges([(0, 1)], num_vertices=2)
        with pytest.raises(SamplingError, match="edge types"):
            draw(ReservoirSampler(), g, 0, stream_source(), admissible_type=0)

    def test_reads_whole_list(self):
        g = weighted_fan()
        _, _, reads = draw(ReservoirSampler(), g, 0, stream_source())
        assert reads == g.degree(0)

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
    source = stream_source(9)
    for previous in (-1, 1):
        for _ in range(50):
            assert draw(sampler, g, 0, source, previous)[0] == 0


def test_scalar_source_contract():
    """``randint`` refuses an empty range; ``element_uniforms`` gives one
    uniform per listed index, none for none, and moves the stream one
    bump per call, as the reservoir kernel's scan does."""
    for bound in (0, -3):
        with pytest.raises(SamplingError, match="bound must be positive"):
            stream_source(5).randint(bound)
    for within in ([], [4], [0, 2, 9]):
        source, twin = stream_source(5), stream_source(5)
        values = source.element_uniforms(np.array(within, dtype=np.int64))
        assert len(values) == len(within)
        assert all(0.0 <= u < 1.0 for u in values)
        twin.uniform()
        assert source.uniform() == twin.uniform()


def test_stream_source_scans_like_the_reservoir_kernel():
    """The adapter's uniforms are ``QueryStreams.element_uniforms`` of the
    whole row, at the listed indices."""
    within = np.array([0, 2, 9])
    row = QueryStreams.from_states(stream_states(5, [0])).element_uniforms(
        None, np.array([10]))
    assert stream_source(5).element_uniforms(within).tolist() == row[within].tolist()


# --- the reservoir scan draws in the kernel's order -------------------------


def typed_weighted_rmat():
    graph = rmat(8, edge_factor=8, seed=2)
    graph = graph.with_weights(np.random.default_rng(2).pareto(1.2, graph.num_edges) + 0.05)
    return assign_metapath_schema(graph, num_types=3, seed=2)


#: name -> (sampler factory, walkers carry a previous vertex, typed hops).
SCANS = {
    "first-order": (ReservoirSampler, False, False),
    "node2vec": (lambda: ReservoirSampler(p=4.0, q=0.25), True, False),
    "typed": (ReservoirSampler, False, True),
}


@pytest.mark.parametrize("name", SCANS)
def test_scalar_scan_equals_the_kernel_walker_by_walker(name):
    """On the same stream states, ``ReservoirSampler.draw`` picks the
    neighbour ``ReservoirKernel`` picks for every walker of a frontier,
    charges the same costs, and leaves each stream where the kernel
    leaves it (one bump per scan)."""
    make_sampler, second_order, typed = SCANS[name]
    graph = typed_weighted_rmat()
    rng = np.random.default_rng(4)
    current = rng.choice(np.flatnonzero(graph.degrees() > 0), size=600)
    previous = np.full(current.size, -1, dtype=np.int64)
    if second_order:  # every other walker came from its row's first neighbour
        previous[::2] = graph.col[graph.row_ptr[current[::2]]]
    types = rng.integers(0, 3, size=current.size) if typed else None
    sampler = make_sampler()
    kernel = ReservoirKernel(sampler)
    kernel.prepare(graph)
    kernel_states = stream_states(11, np.arange(current.size))
    sources = [QueryStream(state) for state in kernel_states.tolist()]
    batch = kernel.sample(graph, current, previous, types,
                          QueryStreams.from_states(kernel_states), None,
                          graph.degrees()[current])
    chosen, proposals, reads = [], 0, 0
    for k, (vertex, prev) in enumerate(zip(current.tolist(), previous.tolist())):
        index, drawn, read = draw(sampler, graph, vertex, sources[k], prev,
                                  None if types is None else int(types[k]))
        chosen.append(-1 if index < 0 else int(graph.neighbors(vertex)[index]))
        proposals += drawn
        reads += read
    assert chosen == batch.vertex.tolist()
    assert [source.state for source in sources] == kernel_states.tolist()
    assert (proposals, reads) == (batch.proposals, batch.neighbor_reads)
    if typed:
        assert -1 in chosen


class FixedUniforms:
    """Every element uniform is 0.5, so equal weights give equal keys."""

    def element_uniforms(self, within):
        return np.full(len(within), 0.5)


@pytest.mark.parametrize("admissible,winner", [(None, 2), (0, 1)],
                         ids=["untyped", "last-entry-filtered"])
def test_scalar_scan_gives_ties_to_the_later_eligible_entry(admissible, winner):
    g = from_edges([(0, 1), (0, 2), (0, 3)], weights=[2.0, 2.0, 2.0],
                   edge_types=[0, 0, 1], num_vertices=4)
    index, _, _ = draw(ReservoirSampler(), g, 0, FixedUniforms(), admissible_type=admissible)
    assert index == winner


def test_a_type_on_an_untyped_graph_is_refused_before_any_draw():
    g = from_edges([(0, 1), (0, 2)], num_vertices=3)
    source, twin = stream_source(5), stream_source(5)
    with pytest.raises(SamplingError, match="no edge types"):
        draw(ReservoirSampler(), g, 0, source, admissible_type=0)
    assert source.uniform() == twin.uniform()


def test_a_row_with_nothing_eligible_ends_the_walk_after_one_bump():
    """The kernel bumps every walker's stream once per scan, eligible
    entries or not; so does the scalar scan."""
    g = from_edges([(0, 1), (0, 2)], edge_types=[1, 1], num_vertices=3)
    source, twin = stream_source(8), stream_source(8)
    index, _, reads = draw(ReservoirSampler(), g, 0, source, admissible_type=0)
    assert index == -1 and reads == 2
    twin.uniform()
    assert source.uniform() == twin.uniform()
