"""Unit tests for graph builders."""

import numpy as np
import pytest

from graph_helpers import edge_pairs

from repro.errors import GraphError
from repro.graph import from_adjacency, from_adjacency_dict, from_edges
from repro.graph.builders import validate_edge_weights


class TestEdgeWeightValidation:
    """Bad weights must fail loudly at build time, naming the edge —
    not surface later as corrupt alias tables."""

    @pytest.mark.parametrize("bad", [-1.0, 0.0, float("nan"), float("inf"),
                                     float("-inf")])
    def test_bad_weight_rejected_with_edge_context(self, bad):
        with pytest.raises(GraphError, match=r"edge 1 \(1 -> 2\)"):
            from_edges([(0, 1), (1, 2)], weights=[1.0, bad])

    def test_message_names_the_constraint(self):
        with pytest.raises(GraphError, match="strictly positive and finite"):
            from_edges([(0, 1)], weights=[-3.0])

    def test_nan_rejected_despite_comparison_semantics(self):
        # NaN compares False to everything; the finite check must catch it.
        with pytest.raises(GraphError, match="edge 0"):
            from_edges([(0, 1)], weights=[float("nan")])

    def test_undirected_build_validates_before_mirroring(self):
        # The reported index is the input edge's, not the mirrored copy's.
        with pytest.raises(GraphError, match=r"edge 1 \(2 -> 0\)"):
            from_edges([(0, 1), (2, 0)], weights=[1.0, -1.0], directed=False)

    def test_valid_weights_pass(self):
        g = from_edges([(0, 1), (1, 2)], weights=[0.5, 2.0])
        assert g.is_weighted

    def test_helper_accepts_empty(self):
        validate_edge_weights(np.empty(0))

    def test_helper_without_edge_context(self):
        with pytest.raises(GraphError, match="edge 2 has"):
            validate_edge_weights(np.array([1.0, 2.0, -5.0]))


class TestFromEdges:
    def test_simple(self):
        g = from_edges([(0, 1), (1, 2), (0, 2)])
        assert g.num_vertices == 3
        assert set(edge_pairs(g)) == {(0, 1), (1, 2), (0, 2)}

    def test_neighbor_lists_sorted(self):
        g = from_edges([(0, 2), (0, 1), (0, 3)])
        assert g.neighbors(0).tolist() == [1, 2, 3]

    def test_explicit_vertex_count_allows_isolated(self):
        g = from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degree(4) == 0

    def test_vertex_count_too_small_rejected(self):
        with pytest.raises(GraphError, match="exceeds num_vertices"):
            from_edges([(0, 9)], num_vertices=5)

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphError, match="non-negative"):
            from_edges([(-1, 0)])

    def test_empty_edges(self):
        g = from_edges([], num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_undirected_mirrors_edges(self):
        g = from_edges([(0, 1)], directed=False)
        assert set(edge_pairs(g)) == {(0, 1), (1, 0)}

    def test_undirected_mirrors_weights(self):
        g = from_edges([(0, 1)], weights=[5.0], directed=False)
        assert g.weights.tolist() == [5.0, 5.0]

    def test_dedupe_keeps_one_copy(self):
        g = from_edges([(0, 1), (0, 1), (0, 1)], dedupe=True)
        assert g.num_edges == 1

    def test_without_dedupe_parallel_edges_remain(self):
        g = from_edges([(0, 1), (0, 1)])
        assert g.num_edges == 2

    def test_weights_preserved_under_sorting(self):
        g = from_edges([(0, 2), (0, 1)], weights=[2.0, 1.0])
        # after sorting neighbors ascending, weights must follow their edge
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbor_weights(0).tolist() == [1.0, 2.0]

    def test_misaligned_weights_rejected(self):
        with pytest.raises(GraphError, match="align"):
            from_edges([(0, 1)], weights=[1.0, 2.0])

    def test_edge_types_follow_edges(self):
        g = from_edges([(0, 2), (0, 1)], edge_types=[7, 3])
        assert g.neighbor_edge_types(0).tolist() == [3, 7]

    def test_malformed_edges_rejected(self):
        with pytest.raises(GraphError, match="pairs"):
            from_edges([(0, 1, 2)])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.uint32, np.uint64,
                                       np.float64])
    @pytest.mark.parametrize("options", [
        {},  # the key fast path
        {"num_vertices": 300, "dedupe": True},
        {"directed": False},
        {"weights": True},  # the permutation path
        {"sort_neighbors": False, "dedupe": True},
    ])
    def test_any_id_dtype_builds_the_int64_graph(self, dtype, options):
        """Narrower integer ids reach the keys unwidened; every array of
        the graph is still the int64 one the same ids build."""
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 200, size=(900, 2))
        options = dict(options)
        if options.pop("weights", False):
            options["weights"] = rng.random(900) + 0.5
        expected = from_edges(ids, **options)
        graph = from_edges(ids.astype(dtype), **options)
        assert graph.col.dtype == graph.row_ptr.dtype == np.int64
        assert graph.num_vertices == expected.num_vertices
        assert graph.row_ptr.tobytes() == expected.row_ptr.tobytes()
        assert graph.col.tobytes() == expected.col.tobytes()
        if expected.weights is not None:
            assert graph.weights.tobytes() == expected.weights.tobytes()


class TestFromAdjacency:
    def test_binary_matrix_is_unweighted(self):
        m = np.array([[0, 1], [1, 0]])
        g = from_adjacency(m)
        assert not g.is_weighted
        assert set(edge_pairs(g)) == {(0, 1), (1, 0)}

    def test_valued_matrix_becomes_weighted(self):
        m = np.array([[0.0, 2.5], [0.0, 0.0]])
        g = from_adjacency(m)
        assert g.is_weighted
        assert g.neighbor_weights(0).tolist() == [2.5]

    def test_non_square_rejected(self):
        with pytest.raises(GraphError, match="square"):
            from_adjacency(np.zeros((2, 3)))


class TestFromAdjacencyDict:
    def test_round_trip(self):
        g = from_adjacency_dict({0: [1, 2], 1: [], 2: [0]})
        assert set(edge_pairs(g)) == {(0, 1), (0, 2), (2, 0)}

    def test_infers_vertex_count_from_values(self):
        g = from_adjacency_dict({0: [5]})
        assert g.num_vertices == 6
