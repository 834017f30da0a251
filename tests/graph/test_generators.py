"""Unit tests for synthetic graph generators."""

import numpy as np
import pytest

from graph_helpers import edge_pairs

from repro.errors import GraphError
from repro.graph import (
    BALANCED_INITIATOR,
    GRAPH500_INITIATOR,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    gini_coefficient,
    path_graph,
    powerlaw,
    rmat,
    star_graph,
)
from repro.graph.builders import _MAX_KEYED_VERTICES, from_edges


class TestRmat:
    def test_vertex_count_is_power_of_scale(self):
        g = rmat(scale=6, edge_factor=4, seed=1)
        assert g.num_vertices == 64

    def test_deterministic_for_seed(self):
        a = rmat(scale=6, edge_factor=4, seed=42)
        b = rmat(scale=6, edge_factor=4, seed=42)
        assert a.num_edges == b.num_edges
        assert np.array_equal(a.col, b.col)

    def test_different_seeds_differ(self):
        a = rmat(scale=6, edge_factor=4, seed=1)
        b = rmat(scale=6, edge_factor=4, seed=2)
        assert a.num_edges != b.num_edges or not np.array_equal(a.col, b.col)

    def test_graph500_skew_exceeds_balanced(self):
        balanced = rmat(scale=9, edge_factor=8, initiator=BALANCED_INITIATOR, seed=3)
        skewed = rmat(scale=9, edge_factor=8, initiator=GRAPH500_INITIATOR, seed=3)
        gini_balanced = gini_coefficient(balanced.degrees())
        gini_skewed = gini_coefficient(skewed.degrees())
        assert gini_skewed > gini_balanced + 0.1

    def test_dedupe_false_keeps_all_edges(self):
        g = rmat(scale=5, edge_factor=8, seed=4, dedupe=False)
        assert g.num_edges == 8 * 32

    def test_undirected_has_symmetric_edges(self):
        g = rmat(scale=5, edge_factor=4, seed=5, directed=False)
        edges = set(edge_pairs(g))
        assert all((b, a) in edges for a, b in edges)

    def test_rejects_bad_initiator(self):
        with pytest.raises(GraphError, match="sum to 1"):
            rmat(scale=4, initiator=(0.5, 0.5, 0.5, 0.5))

    def test_rejects_bad_scale(self):
        with pytest.raises(GraphError, match="scale"):
            rmat(scale=0)

    @pytest.mark.parametrize("scale", [32, 33, 62])
    def test_refuses_ids_past_int64_keys_before_allocating(self, scale, monkeypatch):
        """Scale 31 is the last whose ``src * |V| + dst`` keys fit int64
        (and whose ids fit the 32-bit endpoint words); a larger scale is
        refused before the ``2 x edge_factor x 2**scale`` words exist."""
        assert 1 << 31 <= _MAX_KEYED_VERTICES < 1 << 32

        def refuse(*args, **kwargs):
            raise AssertionError("rmat allocated before refusing the scale")

        monkeypatch.setattr(np, "zeros", refuse)
        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(GraphError, match=f"scale must be <= 31, got {scale}"):
            rmat(scale)

    def test_name_labels(self):
        g = rmat(scale=4, edge_factor=2, seed=0)
        assert g.name == "rmat-sc4-ef2"


def level_major_rmat(scale, edge_factor, initiator, seed, directed, dedupe):
    """The oracle: every level drawn and applied to all m edges at once,
    in int64 endpoint rows — the loop the blocked one must equal."""
    a, b, c, _ = initiator
    rng = np.random.default_rng(seed)
    m = edge_factor << scale
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(scale):
        draw = rng.random(m)
        src = (src << 1) | (draw >= a + b)
        dst = (dst << 1) | (((draw >= a) & (draw < a + b)) | (draw >= a + b + c))
    return from_edges(np.stack([src, dst], axis=1), num_vertices=1 << scale,
                      directed=directed, dedupe=dedupe)


class TestRmatBlocks:
    """The blocked level passes build the oracle's graph byte for byte."""

    @pytest.mark.parametrize("scale,edge_factor", [
        (5, 16),   # m = 512, less than one block
        (14, 5),   # m = 81,920: one full block and a short one
        (16, 16),  # m = 2**20: sixteen blocks
    ])
    @pytest.mark.parametrize("initiator", [GRAPH500_INITIATOR, BALANCED_INITIATOR])
    def test_block_shapes_match_the_level_major_loop(self, scale, edge_factor, initiator):
        graph = rmat(scale, edge_factor, initiator, seed=7)
        oracle = level_major_rmat(scale, edge_factor, initiator, 7, True, True)
        assert np.array_equal(graph.row_ptr, oracle.row_ptr)
        assert np.array_equal(graph.col, oracle.col)

    @pytest.mark.parametrize("directed,dedupe", [(False, True), (True, False), (False, False)])
    def test_directed_and_dedupe_match_the_level_major_loop(self, directed, dedupe):
        graph = rmat(14, 5, seed=3, directed=directed, dedupe=dedupe)
        oracle = level_major_rmat(14, 5, GRAPH500_INITIATOR, 3, directed, dedupe)
        assert np.array_equal(graph.row_ptr, oracle.row_ptr)
        assert np.array_equal(graph.col, oracle.col)



class TestPowerlaw:
    def test_hits_edge_target(self):
        g = powerlaw(num_vertices=500, num_edges=2500, seed=1)
        assert g.num_edges == 2500

    def test_dangling_fraction_respected(self):
        g = powerlaw(num_vertices=1000, num_edges=5000, dangling_fraction=0.2, seed=2)
        assert g.dangling_fraction() == pytest.approx(0.2, abs=0.02)

    def test_zero_dangling_when_not_requested(self):
        g = powerlaw(num_vertices=500, num_edges=3000, dangling_fraction=0.0, seed=3)
        assert g.dangling_fraction() == pytest.approx(0.0, abs=0.02)

    def test_no_self_loops(self):
        g = powerlaw(num_vertices=200, num_edges=1000, seed=4)
        assert all(a != b for a, b in edge_pairs(g))

    def test_deterministic(self):
        a = powerlaw(num_vertices=300, num_edges=1500, seed=7)
        b = powerlaw(num_vertices=300, num_edges=1500, seed=7)
        assert np.array_equal(a.col, b.col)

    def test_preferential_more_skewed_in_degree(self):
        pref = powerlaw(num_vertices=800, num_edges=4000, preferential=True, seed=8)
        unif = powerlaw(num_vertices=800, num_edges=4000, preferential=False, seed=8)
        in_pref = np.bincount(pref.col, minlength=800)
        in_unif = np.bincount(unif.col, minlength=800)
        assert gini_coefficient(in_pref) > gini_coefficient(in_unif)

    def test_dangling_requires_directed(self):
        with pytest.raises(GraphError, match="directed"):
            powerlaw(num_vertices=100, num_edges=400, dangling_fraction=0.1, directed=False)

    def test_rejects_bad_exponent(self):
        with pytest.raises(GraphError, match="exponent"):
            powerlaw(num_vertices=100, num_edges=400, exponent=1.0)

    def test_saturation_on_tiny_graph_does_not_hang(self):
        # Target more edges than can exist: generator must stop gracefully.
        g = powerlaw(num_vertices=5, num_edges=1000, seed=9)
        assert g.num_edges <= 20  # 5*4 possible non-loop edges


class TestDeterministicGraphs:
    def test_cycle(self):
        g = cycle_graph(4)
        assert set(edge_pairs(g)) == {(0, 1), (1, 2), (2, 3), (3, 0)}

    def test_path_last_vertex_dangles(self):
        g = path_graph(3)
        assert g.degree(2) == 0
        assert set(edge_pairs(g)) == {(0, 1), (1, 2)}

    def test_star_leaves_dangle(self):
        g = star_graph(3)
        assert g.degree(0) == 3
        assert all(g.degree(v) == 0 for v in (1, 2, 3))

    def test_complete(self):
        g = complete_graph(3)
        assert g.num_edges == 6
        assert not any(a == b for a, b in edge_pairs(g))

    def test_erdos_renyi_edge_count_close(self):
        g = erdos_renyi(200, 1000, seed=1)
        assert 800 <= g.num_edges <= 1000

    def test_size_validation(self):
        for factory in (cycle_graph, path_graph, star_graph, complete_graph):
            with pytest.raises(GraphError):
                factory(0)
