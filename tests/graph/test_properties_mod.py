"""Unit tests for graph structural statistics."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    CSRGraph,
    complete_graph,
    cycle_graph,
    degree_statistics,
    estimate_diameter,
    gini_coefficient,
    path_graph,
    powerlaw,
    star_graph,
)


class TestDegreeStatistics:
    def test_cycle_is_regular(self):
        stats = degree_statistics(cycle_graph(10))
        assert stats.minimum == stats.maximum == 1
        assert stats.gini == pytest.approx(0.0, abs=1e-9)
        assert stats.dangling_fraction == 0.0

    def test_star_is_skewed(self):
        stats = degree_statistics(star_graph(20))
        assert stats.maximum == 20
        assert stats.dangling_fraction == pytest.approx(20 / 21)
        assert stats.gini >= 0.5

    def test_empty_graph_rejected(self):
        g = CSRGraph(row_ptr=np.array([0]), col=np.array([], dtype=np.int64))
        with pytest.raises(GraphError):
            degree_statistics(g)


class TestGini:
    def test_uniform_is_zero(self):
        assert gini_coefficient(np.full(50, 7)) == pytest.approx(0.0, abs=1e-9)

    def test_single_holder_approaches_one(self):
        values = np.zeros(100)
        values[0] = 1000
        assert gini_coefficient(values) > 0.98

    def test_all_zero_is_zero(self):
        assert gini_coefficient(np.zeros(10)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            gini_coefficient(np.array([]))


class TestDiameter:
    def test_path_graph_diameter(self):
        # BFS from vertex 0 reaches depth n-1.
        assert estimate_diameter(path_graph(10), num_sources=10, seed=0) == 9

    def test_cycle_graph_diameter(self):
        assert estimate_diameter(cycle_graph(8), num_sources=8, seed=0) == 7

    def test_complete_graph_diameter(self):
        assert estimate_diameter(complete_graph(5), num_sources=5, seed=0) == 1

    def test_all_dangling_graph(self):
        g = CSRGraph(row_ptr=np.array([0, 0, 0]), col=np.array([], dtype=np.int64))
        assert estimate_diameter(g) == 0

    def test_is_lower_bound(self):
        g = powerlaw(num_vertices=300, num_edges=1500, seed=3)
        few = estimate_diameter(g, num_sources=1, seed=1)
        many = estimate_diameter(g, num_sources=16, seed=1)
        assert many >= few

