"""Unit tests for the Table II dataset catalog."""

import numpy as np
import pytest

from graph_helpers import edge_pairs

from repro.errors import GraphError
from repro.graph import (
    DATASET_ORDER,
    assign_metapath_schema,
    dataset_names,
    get_spec,
    load_dataset,
    thunderrw_weights,
)


class TestCatalog:
    def test_all_six_datasets_present(self):
        assert dataset_names() == ("WG", "CP", "AS", "LJ", "AB", "UK")

    def test_specs_echo_paper_table(self):
        wg = get_spec("WG")
        assert wg.long_name == "web-Google"
        assert wg.paper_vertices == 900_000
        assert wg.paper_diameter == 21
        assert get_spec("AB").paper_diameter == 133

    def test_order_matches_ascending_edges(self):
        edges = [get_spec(n).paper_edges for n in DATASET_ORDER]
        assert edges == sorted(edges)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(GraphError, match="unknown dataset"):
            get_spec("nope")


class TestLoadDataset:
    def test_scaled_size_targets(self):
        g = load_dataset("WG", scale=1.0, seed=0)
        spec = get_spec("WG")
        assert g.num_vertices == spec.scaled_vertices
        assert abs(g.num_edges - spec.scaled_edges) <= spec.scaled_edges * 0.05

    def test_deterministic(self):
        a = load_dataset("CP", scale=0.2, seed=5)
        b = load_dataset("CP", scale=0.2, seed=5)
        assert np.array_equal(a.col, b.col)

    def test_different_datasets_differ(self):
        a = load_dataset("WG", scale=0.2, seed=5)
        b = load_dataset("UK", scale=0.2, seed=5)
        assert a.num_vertices != b.num_vertices

    def test_dangling_fraction_tracks_spec(self):
        for name in ("WG", "CP", "UK"):
            g = load_dataset(name, scale=0.5, seed=2)
            assert g.dangling_fraction() == pytest.approx(
                get_spec(name).dangling_fraction, abs=0.03
            )

    def test_undirected_datasets_have_symmetric_edges(self):
        g = load_dataset("AS", scale=0.1, seed=1)
        edges = set(edge_pairs(g))
        assert all((b, a) in edges for a, b in edges)

    def test_weighted_load(self):
        g = load_dataset("WG", scale=0.1, seed=1, weighted=True)
        assert g.is_weighted
        assert g.weights.min() >= 1.0
        assert g.weights.max() < 64.0

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(GraphError, match="scale"):
            load_dataset("WG", scale=0.0)


class TestThunderrwWeights:
    def test_range_and_determinism(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        w1 = thunderrw_weights(g, seed=3)
        w2 = thunderrw_weights(g, seed=3)
        assert np.array_equal(w1, w2)
        assert w1.size == g.num_edges
        assert w1.min() >= 1.0 and w1.max() < 64.0

    def test_seed_changes_weights(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        assert not np.array_equal(thunderrw_weights(g, seed=1), thunderrw_weights(g, seed=2))


class TestMetapathSchema:
    def test_types_assigned(self):
        g = assign_metapath_schema(load_dataset("WG", scale=0.1, seed=1), num_types=4, seed=9)
        assert g.vertex_types is not None and g.edge_types is not None
        assert set(np.unique(g.vertex_types)) <= set(range(4))

    def test_edge_type_is_destination_type(self):
        g = assign_metapath_schema(load_dataset("WG", scale=0.1, seed=1), num_types=3, seed=9)
        for v in range(min(50, g.num_vertices)):
            neighbors = g.neighbors(v)
            if neighbors.size:
                types = g.neighbor_edge_types(v)
                assert np.array_equal(types, g.vertex_types[neighbors])

    def test_rejects_zero_types(self):
        with pytest.raises(GraphError, match="num_types"):
            assign_metapath_schema(load_dataset("WG", scale=0.1, seed=1), num_types=0)
