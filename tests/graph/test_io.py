"""Unit tests for graph serialization."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_helpers import edge_pairs

from repro.errors import GraphFormatError
from repro.graph import (
    from_edges,
    load_edge_list,
    load_npz,
    path_graph,
    powerlaw,
    rmat,
    save_edge_list,
    save_npz,
    star_graph,
)
from repro.graph.datasets import assign_metapath_schema


class TestNpzRoundTrip:
    def test_plain_graph(self, tmp_path):
        g = powerlaw(num_vertices=50, num_edges=200, seed=1, name="roundtrip")
        path = tmp_path / "g.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert loaded.name == "roundtrip"
        assert np.array_equal(loaded.row_ptr, g.row_ptr)
        assert np.array_equal(loaded.col, g.col)
        assert loaded.weights is None

    def test_weighted_typed_graph(self, tmp_path):
        g = powerlaw(num_vertices=30, num_edges=100, seed=2)
        g = g.with_weights(np.linspace(1, 2, g.num_edges))
        g = assign_metapath_schema(g, num_types=3, seed=3)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert np.allclose(loaded.weights, g.weights)
        assert np.array_equal(loaded.edge_types, g.edge_types)
        assert np.array_equal(loaded.vertex_types, g.vertex_types)

    def test_missing_file_raises_format_error(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_npz(tmp_path / "missing.npz")

    def test_corrupt_file_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(GraphFormatError):
            load_npz(path)


class TestRoundTripPreservesDerivedState:
    """save/load must hand back a graph whose *derived* facts — the
    ``cols_sorted`` fast-path flag, exact weights, metapath typing —
    are indistinguishable from the original's, because engines key
    behaviour (binary-searched ``has_edge``, alias tables, admissible
    hops) off them."""

    def test_npz_keeps_cols_sorted_flag(self, tmp_path):
        g = from_edges([(0, 2), (0, 1), (1, 0)], num_vertices=3)
        assert g.cols_sorted  # from_edges sorts neighbor lists by default
        path = tmp_path / "sorted.npz"
        save_npz(g, path)
        assert load_npz(path).cols_sorted

    def test_npz_keeps_unsorted_cols_unsorted(self, tmp_path):
        g = from_edges([(0, 2), (0, 1), (1, 0)], num_vertices=3,
                       sort_neighbors=False)
        assert not g.cols_sorted
        path = tmp_path / "unsorted.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        # Neither silently sorted nor mis-flagged: the exact column
        # order survives and the flag re-derives to False.
        assert not loaded.cols_sorted
        assert np.array_equal(loaded.col, g.col)

    def test_npz_weights_are_bit_exact(self, tmp_path):
        g = from_edges([(0, 1), (0, 2), (1, 2)], num_vertices=3,
                       weights=[0.1, 1 / 3, 7.25])
        path = tmp_path / "w.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        # npz is the lossless native format: bit equality, not allclose.
        assert np.array_equal(loaded.weights, g.weights)
        assert loaded.weights.dtype == g.weights.dtype

    def test_npz_keeps_metapath_assignments_usable(self, tmp_path):
        """A typed graph must keep working as a MetaPath workload after a
        round trip, not just carry equal arrays."""
        from repro.walks import MetaPathSpec, run_walks, make_queries

        g = powerlaw(num_vertices=40, num_edges=160, seed=5)
        g = g.with_weights(np.linspace(1, 2, g.num_edges))
        g = assign_metapath_schema(g, num_types=3, seed=6)
        path = tmp_path / "typed.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert loaded.has_edge_types
        assert np.array_equal(loaded.edge_types, g.edge_types)
        assert np.array_equal(loaded.vertex_types, g.vertex_types)
        spec = MetaPathSpec(pattern=[0, 1, 2], max_length=8)
        queries = make_queries(loaded, 20, seed=7)
        original = run_walks(g, spec, queries, seed=8)
        reloaded = run_walks(loaded, spec, queries, seed=8)
        for a, b in zip(original.paths, reloaded.paths):
            assert np.array_equal(a, b)

    def test_edge_list_round_trip_keeps_sorted_flag_and_weights(self, tmp_path):
        g = from_edges([(0, 2), (0, 1), (1, 0)], num_vertices=3,
                       weights=[1.5, 2.5, 0.125])
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.cols_sorted
        by_edge = dict(zip(edge_pairs(g), g.weights))
        loaded_by_edge = dict(zip(edge_pairs(loaded), loaded.weights))
        assert by_edge == loaded_by_edge

    def test_edge_list_round_trip_is_exact_on_a_weighted_rmat(self, tmp_path):
        """Each weight is written as its shortest exact decimal, so the
        reloaded graph equals the ``.npz`` one array for array — weights
        bit for bit, and the trailing isolated vertices the header
        declares — and DeepWalk walks it along the same paths."""
        from repro.bench.workloads import make_spec
        from repro.graph import rmat, thunderrw_weights
        from repro.walks import make_queries, run_walks_batch

        g = rmat(8, 8, seed=1, name="rmat8")
        g = g.with_weights(thunderrw_weights(g, seed=1))
        save_edge_list(g, tmp_path / "rmat8.el")
        save_npz(g, tmp_path / "rmat8.npz")
        from_text = load_edge_list(tmp_path / "rmat8.el")
        from_npz = load_npz(tmp_path / "rmat8.npz")
        for loaded in (from_text, from_npz):
            assert np.array_equal(loaded.weights, g.weights)
            assert np.array_equal(loaded.col, g.col)
            assert np.array_equal(loaded.row_ptr, g.row_ptr)
        assert from_text.num_vertices == from_npz.num_vertices == g.num_vertices
        assert from_text.name == from_npz.name == "rmat8"
        spec = make_spec("DeepWalk")
        spec.max_length = 20
        queries = make_queries(g, 200, seed=3)
        text_paths = run_walks_batch(from_text, spec, queries, seed=4).paths
        npz_paths = run_walks_batch(from_npz, spec, queries, seed=4).paths
        assert all(map(np.array_equal, text_paths, npz_paths))


class TestEdgeListRoundTrip:
    def test_unweighted(self, tmp_path):
        g = from_edges([(0, 1), (1, 2), (2, 0)])
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert set(edge_pairs(loaded)) == set(edge_pairs(g))

    def test_weighted(self, tmp_path):
        g = from_edges([(0, 1), (1, 0)], weights=[1.5, 2.5])
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.is_weighted
        assert sorted(loaded.weights.tolist()) == [1.5, 2.5]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0\t1\n1\t2\n")
        loaded = load_edge_list(path)
        assert set(edge_pairs(loaded)) == {(0, 1), (1, 2)}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphFormatError, match="expected"):
            load_edge_list(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_mixed_weighted_unweighted_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2.0\n1 2\n")
        with pytest.raises(GraphFormatError, match="mixed"):
            load_edge_list(path)

    def test_name_from_filename(self, tmp_path):
        g = from_edges([(0, 1)])
        path = tmp_path / "mygraph.txt"
        save_edge_list(g, path)
        assert load_edge_list(path).name == "mygraph"


class TestEdgeListHeader:
    """The first line :func:`save_edge_list` writes declares the vertex
    count; :func:`load_edge_list` honours it unless told otherwise."""

    def test_trailing_isolated_vertices_survive(self, tmp_path):
        g = from_edges([(0, 1), (1, 0)], num_vertices=6, name="padded")
        save_edge_list(g, tmp_path / "g.el")
        assert (tmp_path / "g.el").read_text().splitlines()[0] == (
            "# padded: 6 vertices, 2 edges")
        loaded = load_edge_list(tmp_path / "g.el")
        assert loaded.num_vertices == 6
        assert np.array_equal(loaded.row_ptr, g.row_ptr)

    def test_an_edgeless_graph_round_trips(self, tmp_path):
        g = from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=3)
        save_edge_list(g, tmp_path / "g.el")
        loaded = load_edge_list(tmp_path / "g.el")
        assert (loaded.num_vertices, loaded.num_edges) == (3, 0)

    def test_an_explicit_vertex_count_overrides_the_header(self, tmp_path):
        save_edge_list(from_edges([(0, 1)], num_vertices=6), tmp_path / "g.el")
        assert load_edge_list(tmp_path / "g.el", num_vertices=9).num_vertices == 9

    def test_a_header_below_line_one_is_a_comment(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# a graph\n# g: 6 vertices, 1 edges\n0\t1\n")
        assert load_edge_list(path).num_vertices == 2

    def test_a_foreign_first_comment_leaves_the_count_inferred(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# Nodes: 9 Edges: 2\n0\t1\n1\t3\n")
        assert load_edge_list(path).num_vertices == 4

    def test_a_header_that_undercounts_its_edges_is_rejected(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# g: 2 vertices, 1 edges\n0\t5\n")
        with pytest.raises(GraphFormatError, match="exceeds num_vertices=2") as raised:
            load_edge_list(path)
        assert str(raised.value).startswith(f"{path}: ")

    def test_a_negative_weight_names_the_file(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("0 1 1.0\n1 2 -2.0\n")
        with pytest.raises(GraphFormatError, match=r"g\.el: edge weights must be strictly"):
            load_edge_list(path)


def shape(name):
    if name == "rmat-undirected":
        return rmat(6, 4, seed=2, directed=False)
    if name == "powerlaw":
        return powerlaw(num_vertices=120, num_edges=600, seed=2)
    if name == "star":
        return star_graph(7)
    return path_graph(9)


@pytest.mark.parametrize("name", ["rmat-undirected", "powerlaw", "star", "path"])
def test_edge_list_round_trip_is_exact_on_any_shape(name, tmp_path):
    """Dangling rows, a dangling last vertex and mirrored edges all read
    back as the same arrays, with weights drawn across six decades."""
    g = shape(name)
    g = g.with_weights(10.0 ** np.random.default_rng(5).uniform(-3, 3, g.num_edges))
    save_edge_list(g, tmp_path / "g.el")
    loaded = load_edge_list(tmp_path / "g.el")
    assert loaded.num_vertices == g.num_vertices
    assert np.array_equal(loaded.row_ptr, g.row_ptr)
    assert np.array_equal(loaded.col, g.col)
    assert loaded.weights.tobytes() == g.weights.tobytes()


positive_floats = st.floats(min_value=5e-324, max_value=1e300, allow_nan=False,
                            allow_infinity=False)


@given(weights=st.lists(positive_floats, min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_any_positive_finite_weight_reads_back_bit_for_bit(weights):
    g = from_edges([(i, i + 1) for i in range(len(weights))], weights=weights)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.el"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
    assert loaded.weights.tobytes() == g.weights.tobytes()
