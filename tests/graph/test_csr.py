"""Unit tests for the CSR graph representation."""

import numpy as np
import pytest

from graph_helpers import edge_pairs

from repro.errors import GraphError
from repro.graph import CSRGraph, from_adjacency_dict, paper_example_graph


def make_simple() -> CSRGraph:
    # 0 -> {1, 2}, 1 -> {2}, 2 -> {} (dangling)
    return CSRGraph(row_ptr=np.array([0, 2, 3, 3]), col=np.array([1, 2, 2]))


class TestConstruction:
    def test_basic_shape(self):
        g = make_simple()
        assert g.num_vertices == 3
        assert g.num_edges == 3

    def test_empty_graph(self):
        g = CSRGraph(row_ptr=np.array([0]), col=np.array([], dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_single_vertex_no_edges(self):
        g = CSRGraph(row_ptr=np.array([0, 0]), col=np.array([], dtype=np.int64))
        assert g.num_vertices == 1
        assert g.degree(0) == 0

    def test_rejects_nonzero_first_pointer(self):
        with pytest.raises(GraphError, match="row_ptr\\[0\\]"):
            CSRGraph(row_ptr=np.array([1, 2]), col=np.array([0, 0]))

    def test_rejects_decreasing_row_ptr(self):
        with pytest.raises(GraphError, match="monotonically"):
            CSRGraph(row_ptr=np.array([0, 2, 1]), col=np.array([0, 1]))

    def test_rejects_mismatched_edge_count(self):
        with pytest.raises(GraphError, match="number of"):
            CSRGraph(row_ptr=np.array([0, 1]), col=np.array([0, 0]))

    def test_rejects_out_of_range_column(self):
        with pytest.raises(GraphError, match="column indices"):
            CSRGraph(row_ptr=np.array([0, 1]), col=np.array([5]))

    def test_rejects_negative_column(self):
        with pytest.raises(GraphError, match="column indices"):
            CSRGraph(row_ptr=np.array([0, 1]), col=np.array([-1]))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(GraphError, match="positive"):
            CSRGraph(
                row_ptr=np.array([0, 1]), col=np.array([0]), weights=np.array([0.0])
            )

    def test_rejects_nan_weights(self):
        with pytest.raises(GraphError, match="finite"):
            CSRGraph(
                row_ptr=np.array([0, 1]), col=np.array([0]), weights=np.array([np.nan])
            )

    def test_rejects_misaligned_weights(self):
        with pytest.raises(GraphError, match="align"):
            CSRGraph(
                row_ptr=np.array([0, 2]),
                col=np.array([0, 0]),
                weights=np.array([1.0]),
            )

    def test_rejects_misaligned_vertex_types(self):
        with pytest.raises(GraphError, match="per vertex"):
            CSRGraph(
                row_ptr=np.array([0, 1]),
                col=np.array([0]),
                vertex_types=np.array([1, 2], dtype=np.int16),
            )

    def test_arrays_are_read_only(self):
        g = make_simple()
        with pytest.raises(ValueError):
            g.col[0] = 9


class TestQueries:
    def test_degree(self):
        g = make_simple()
        assert [g.degree(v) for v in range(3)] == [2, 1, 0]

    def test_degrees_vector(self):
        g = make_simple()
        assert g.degrees().tolist() == [2, 1, 0]

    def test_neighbors(self):
        g = make_simple()
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbors(2).tolist() == []

    def test_degree_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            make_simple().degree(3)

    def test_neighbor_weights_unweighted_defaults_to_ones(self):
        g = make_simple()
        assert g.neighbor_weights(0).tolist() == [1.0, 1.0]

    def test_neighbor_weights_weighted(self):
        g = make_simple().with_weights([3.0, 1.0, 2.0])
        assert g.neighbor_weights(0).tolist() == [3.0, 1.0]

    def test_has_edge(self):
        g = make_simple()
        assert g.has_edge(0, 1)
        assert g.has_edge(0, 2)
        assert not g.has_edge(1, 0)
        assert not g.has_edge(2, 0)

    def test_cols_sorted_detected(self):
        assert make_simple().cols_sorted
        # Descents *between* neighbor lists don't break sortedness.
        g = CSRGraph(row_ptr=np.array([0, 2, 4, 4, 4]), col=np.array([2, 3, 0, 1]))
        assert g.cols_sorted

    def test_cols_unsorted_detected_and_has_edge_still_correct(self):
        g = CSRGraph(row_ptr=np.array([0, 3, 3, 3]), col=np.array([2, 0, 1]))
        assert not g.cols_sorted
        assert g.has_edge(0, 0) and g.has_edge(0, 1) and g.has_edge(0, 2)
        assert not g.has_edge(1, 0)

    def test_has_edge_binary_search_agrees_with_scan(self):
        rng = np.random.default_rng(5)
        from repro.graph import rmat

        g = rmat(7, edge_factor=4, seed=3)
        assert g.cols_sorted
        for _ in range(200):
            src = int(rng.integers(0, g.num_vertices))
            dst = int(rng.integers(0, g.num_vertices))
            assert g.has_edge(src, dst) == bool(np.any(g.neighbors(src) == dst))

    def test_dangling_fraction(self):
        g = make_simple()
        assert g.dangling_fraction() == pytest.approx(1 / 3)

    def test_neighbor_edge_types_requires_types(self):
        with pytest.raises(GraphError, match="edge types"):
            make_simple().neighbor_edge_types(0)


class TestDerived:
    def test_with_weights_roundtrip(self):
        g = make_simple().with_weights([1.0, 2.0, 3.0])
        assert g.is_weighted
        assert g.weights.tolist() == [1.0, 2.0, 3.0]


class TestSizeAccounting:
    def test_row_pointer_bytes(self):
        g = make_simple()
        assert g.row_pointer_bytes(64) == 3 * 8
        assert g.row_pointer_bytes(256) == 3 * 32

    def test_column_list_bytes(self):
        g = make_simple()
        assert g.column_list_bytes(64) == 3 * 8

    def test_total_bytes(self):
        g = make_simple()
        assert g.total_bytes() == g.row_pointer_bytes() + g.column_list_bytes()

    def test_rejects_non_byte_width(self):
        with pytest.raises(GraphError, match="multiple of 8"):
            make_simple().row_pointer_bytes(65)


class TestPaperExample:
    def test_shape_matches_figure_2(self):
        g = paper_example_graph()
        assert g.num_vertices == 5
        assert g.degree(2) == 0  # v3 has no outgoing edges
        assert g.neighbors(0).tolist() == [1, 3, 4]  # v1 -> v2, v4, v5

    def test_adjacency_dict_equivalence(self):
        g = from_adjacency_dict({0: [1], 1: [0]})
        assert set(edge_pairs(g)) == {(0, 1), (1, 0)}
