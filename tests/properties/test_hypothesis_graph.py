"""Property-based tests (hypothesis) for the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import edge_pairs

from repro.graph import (
    build_alias_slots,
    from_edges,
    powerlaw,
    rmat,
)
from repro.graph.alias import build_alias_table

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    min_size=0,
    max_size=120,
)


class TestCSRInvariants:
    @given(edges=edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_edges_round_trip(self, edges):
        g = from_edges(edges, num_vertices=31)
        assert sorted(edge_pairs(g)) == sorted((int(a), int(b)) for a, b in edges)

    @given(edges=edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_degrees_sum_to_edge_count(self, edges):
        g = from_edges(edges, num_vertices=31)
        assert int(g.degrees().sum()) == g.num_edges

    @given(edges=edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_neighbor_lists_sorted(self, edges):
        g = from_edges(edges, num_vertices=31)
        for v in range(g.num_vertices):
            neighbors = g.neighbors(v)
            assert np.all(neighbors[:-1] <= neighbors[1:])

    @given(edges=edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_undirected_build_is_symmetric(self, edges):
        g = from_edges(edges, num_vertices=31, directed=False, dedupe=True)
        edge_set = set(edge_pairs(g))
        assert all((b, a) in edge_set for a, b in edge_set)


class TestAliasInvariants:
    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_alias_table_realizes_exact_distribution(self, weights):
        weights = np.asarray(weights)
        prob, alias = build_alias_slots(weights)
        n = weights.size
        realized = np.zeros(n)
        for i in range(n):
            realized[i] += prob[i] / n
            realized[alias[i]] += (1.0 - prob[i]) / n
        assert np.allclose(realized, weights / weights.sum(), atol=1e-9)

    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_probs_in_unit_interval_and_aliases_in_range(self, weights):
        prob, alias = build_alias_slots(np.asarray(weights))
        assert np.all((prob >= 0.0) & (prob <= 1.0 + 1e-12))
        assert np.all((alias >= 0) & (alias < len(weights)))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_flat_table_covers_every_edge(self, seed):
        g = powerlaw(num_vertices=60, num_edges=240, seed=seed)
        g = g.with_weights(np.random.default_rng(seed).uniform(0.5, 2.0, g.num_edges))
        table = build_alias_table(g)
        assert table.prob.size == g.num_edges


class TestGeneratorInvariants:
    @given(seed=st.integers(0, 10_000), scale=st.integers(3, 8))
    @settings(max_examples=25, deadline=None)
    def test_rmat_vertex_ids_in_range(self, seed, scale):
        g = rmat(scale=scale, edge_factor=4, seed=seed)
        assert g.num_vertices == 2**scale
        if g.num_edges:
            assert int(g.col.max()) < g.num_vertices

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_powerlaw_no_self_loops_and_target_edges(self, seed):
        g = powerlaw(num_vertices=100, num_edges=400, seed=seed)
        assert g.num_edges == 400
        assert all(a != b for a, b in edge_pairs(g))

    @given(seed=st.integers(0, 10_000), fraction=st.floats(0.05, 0.5))
    @settings(max_examples=20, deadline=None)
    def test_powerlaw_dangling_fraction(self, seed, fraction):
        g = powerlaw(
            num_vertices=200, num_edges=800, dangling_fraction=fraction, seed=seed
        )
        assert g.dangling_fraction() >= fraction - 0.02
