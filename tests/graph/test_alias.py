"""Unit tests for alias-table construction (Walker/Vose)."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph import (
    alias_expected_distribution,
    build_alias_slots,
    build_alias_table,
    from_edges,
)
from repro.sampling import AliasSampler, NumpyRandomSource, StepContext


def alias_exact_distribution(prob: np.ndarray, alias: np.ndarray) -> np.ndarray:
    """The exact distribution an alias table realizes.

    Slot i is hit with probability 1/n; it yields i with prob[i] and
    alias[i] otherwise.
    """
    n = prob.size
    out = np.zeros(n)
    for i in range(n):
        out[i] += prob[i] / n
        out[alias[i]] += (1.0 - prob[i]) / n
    return out


class TestBuildAliasSlots:
    def test_uniform_weights_all_accept(self):
        prob, alias = build_alias_slots(np.ones(4))
        assert np.allclose(prob, 1.0)

    def test_realizes_exact_distribution(self):
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        prob, alias = build_alias_slots(weights)
        realized = alias_exact_distribution(prob, alias)
        assert np.allclose(realized, weights / weights.sum(), atol=1e-12)

    def test_single_item(self):
        prob, alias = build_alias_slots(np.array([7.0]))
        assert prob.tolist() == [1.0]
        assert alias.tolist() == [0]

    def test_extreme_skew(self):
        weights = np.array([1e-9, 1.0, 1e-9])
        prob, alias = build_alias_slots(weights)
        realized = alias_exact_distribution(prob, alias)
        assert np.allclose(realized, weights / weights.sum(), atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(SamplingError, match="empty"):
            build_alias_slots(np.array([]))

    def test_rejects_zero_weight(self):
        with pytest.raises(SamplingError, match="positive"):
            build_alias_slots(np.array([1.0, 0.0]))

    def test_rejects_nan(self):
        with pytest.raises(SamplingError, match="positive|finite"):
            build_alias_slots(np.array([1.0, np.nan]))

    def test_alias_indices_in_range(self):
        weights = np.array([5.0, 1.0, 1.0, 1.0, 10.0])
        _, alias = build_alias_slots(weights)
        assert alias.min() >= 0 and alias.max() < weights.size


class TestBuildAliasTable:
    def graph(self):
        return from_edges(
            [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0)],
            weights=[1.0, 2.0, 1.0, 4.0, 1.0],
            num_vertices=4,
        )

    def test_flat_layout_aligned_with_col(self):
        g = self.graph()
        table = build_alias_table(g)
        assert table.prob.size == table.alias.size == g.num_edges

    def test_per_vertex_distribution(self):
        g = self.graph()
        table = build_alias_table(g)
        lo = int(g.row_ptr[0])
        d = g.degree(0)
        realized = alias_exact_distribution(
            np.asarray(table.prob[lo : lo + d]), np.asarray(table.alias[lo : lo + d])
        )
        expected = alias_expected_distribution(g, 0)
        assert np.allclose(realized, expected, atol=1e-12)

    def test_unweighted_graph_gets_uniform_tables(self):
        g = from_edges([(0, 1), (0, 2)], num_vertices=3)
        table = build_alias_table(g)
        assert np.allclose(np.asarray(table.prob), 1.0)

    def test_dangling_vertices_skipped(self):
        g = from_edges([(0, 1)], num_vertices=3)
        table = build_alias_table(g)  # must not raise on dangling 1, 2
        assert table.prob.size == 1

    def test_sample_index_statistics(self):
        g = self.graph()
        sampler = AliasSampler(build_alias_table(g))
        source = NumpyRandomSource(np.random.default_rng(0))
        d = g.degree(0)
        draws = np.zeros(d)
        n = 40_000
        for _ in range(n):
            draws[sampler.draw(g, 0, d, source)] += 1
        expected = alias_expected_distribution(g, 0)
        assert np.allclose(draws / n, expected, atol=0.02)

    def test_sample_index_rejects_empty(self):
        g = self.graph()
        sampler = AliasSampler(build_alias_table(g))
        source = NumpyRandomSource(np.random.default_rng(0))
        with pytest.raises(SamplingError, match="dangling vertex 3"):
            sampler.sample(g, StepContext(3), source)
