"""DynamicGraph update semantics, validation, epochs and compaction."""

import gc
import weakref

import numpy as np
import pytest

from repro.dynamic import DynamicGraph, apply_batch, sliding_window_trace
from repro.errors import DynamicGraphError, GraphError
from repro.graph import from_edges
from repro.graph.datasets import assign_metapath_schema


def weighted_graph():
    return from_edges(
        [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3)],
        num_vertices=5,
        weights=[1.0, 2.0, 3.0, 4.0, 5.0],
    )


def unweighted_graph():
    return from_edges([(0, 1), (0, 2), (1, 2), (2, 0)], num_vertices=4)


class TestConstruction:
    def test_rejects_edge_typed_base(self):
        typed = assign_metapath_schema(unweighted_graph(), num_types=2, seed=0)
        with pytest.raises(DynamicGraphError, match="edge/vertex types"):
            DynamicGraph(typed)

    def test_rejects_unsorted_neighbor_lists(self):
        unsorted = from_edges([(0, 2), (0, 1)], sort_neighbors=False)
        with pytest.raises(DynamicGraphError, match="sorted neighbor lists"):
            DynamicGraph(unsorted)

    def test_rejects_bad_threshold(self):
        with pytest.raises(DynamicGraphError, match="compaction_threshold"):
            DynamicGraph(unweighted_graph(), compaction_threshold=0.0)


class TestReadApi:
    def test_mirrors_base_before_updates(self):
        g = DynamicGraph(weighted_graph())
        assert g.num_vertices == 5
        assert g.num_edges == 5
        assert g.degree(2) == 2
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbor_weights(2).tolist() == [4.0, 5.0]
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)

    def test_reads_see_pending_updates(self):
        g = DynamicGraph(weighted_graph())
        g.add_edges([(1, 0)], weights=[7.0])
        g.remove_edges([(0, 2)])
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == [0, 2]
        assert g.neighbor_weights(1).tolist() == [7.0, 3.0]
        assert g.num_edges == 5

    def test_unweighted_neighbor_weights_are_ones(self):
        g = DynamicGraph(unweighted_graph())
        g.add_edges([(3, 0)])
        assert g.neighbor_weights(3).tolist() == [1.0]


class TestUpdateSemantics:
    def test_duplicate_insert_updates_weight_in_place(self):
        g = DynamicGraph(weighted_graph())
        assert g.add_edges([(0, 1)], weights=[9.0]) == 0
        assert g.num_edges == 5
        assert g.neighbor_weights(0).tolist() == [9.0, 2.0]

    def test_duplicate_insert_unweighted_is_noop(self):
        g = DynamicGraph(unweighted_graph())
        assert g.add_edges([(0, 1)]) == 0
        assert g.num_edges == 4

    def test_remove_missing_edge_raises(self):
        g = DynamicGraph(weighted_graph())
        with pytest.raises(DynamicGraphError, match="does not exist"):
            g.remove_edges([(1, 0)])

    def test_remove_then_readd(self):
        g = DynamicGraph(weighted_graph())
        g.remove_edges([(0, 1)])
        assert not g.has_edge(0, 1)
        assert g.add_edges([(0, 1)], weights=[8.0]) == 1
        assert g.neighbor_weights(0).tolist() == [8.0, 2.0]
        assert g.num_edges == 5

    def test_vertex_drops_to_degree_zero(self):
        g = DynamicGraph(weighted_graph())
        g.remove_edges([(2, 0), (2, 3)])
        assert g.degree(2) == 0
        assert g.neighbors(2).size == 0
        snap = g.snapshot()
        assert snap.graph.degree(2) == 0

    def test_update_weights_requires_existing_edge(self):
        g = DynamicGraph(weighted_graph())
        with pytest.raises(DynamicGraphError, match="re-weight"):
            g.update_weights([(3, 0)], weights=[1.0])

    def test_update_weights_on_unweighted_rejected(self):
        g = DynamicGraph(unweighted_graph())
        with pytest.raises(DynamicGraphError, match="unweighted"):
            g.update_weights([(0, 1)], weights=[2.0])

    def test_weighted_updates_require_weights(self):
        g = DynamicGraph(weighted_graph())
        with pytest.raises(DynamicGraphError, match="must carry weights"):
            g.add_edges([(3, 0)])

    def test_unweighted_updates_reject_weights(self):
        g = DynamicGraph(unweighted_graph())
        with pytest.raises(DynamicGraphError, match="do not accept"):
            g.add_edges([(3, 0)], weights=[1.0])

    def test_bad_weight_rejected_before_any_mutation(self):
        g = DynamicGraph(weighted_graph())
        with pytest.raises(GraphError, match="positive and finite"):
            g.add_edges([(3, 0), (3, 1)], weights=[1.0, -2.0])
        # Array-level validation runs before the first edge applies.
        assert not g.has_edge(3, 0)

    def test_vertex_set_is_fixed(self):
        g = DynamicGraph(unweighted_graph())
        with pytest.raises(DynamicGraphError, match="fixed at construction"):
            g.add_edges([(0, 99)])


class TestSnapshots:
    def test_epoch_zero_and_caching(self):
        g = DynamicGraph(weighted_graph())
        first = g.snapshot()
        assert first.epoch == 0
        assert g.snapshot() is first

    def test_updates_advance_the_epoch(self):
        g = DynamicGraph(weighted_graph())
        g.snapshot()
        g.add_edges([(3, 0)], weights=[1.0])
        assert g.snapshot().epoch == 1
        g.remove_edges([(3, 0)])
        assert g.snapshot().epoch == 2
        assert g.epoch == 2

    def test_snapshots_are_immutable_versions(self):
        g = DynamicGraph(weighted_graph())
        before = g.snapshot()
        g.remove_edges([(0, 1)])
        after = g.snapshot()
        assert before.graph.has_edge(0, 1)
        assert not after.graph.has_edge(0, 1)
        assert not before.graph.col.flags.writeable
        assert not before.sampler_state.alias_slots.flags.writeable

    def test_logical_edges_roundtrip(self):
        g = DynamicGraph(weighted_graph())
        g.add_edges([(4, 0)], weights=[2.5])
        g.remove_edges([(1, 2)])
        edges, weights = g.logical_edges()
        rebuilt = from_edges(edges, num_vertices=5, weights=weights)
        snap = g.snapshot()
        assert np.array_equal(rebuilt.row_ptr, snap.graph.row_ptr)
        assert np.array_equal(rebuilt.col, snap.graph.col)
        assert np.array_equal(rebuilt.weights, snap.graph.weights)


class TestCompaction:
    def test_threshold_triggers_compaction(self):
        g = DynamicGraph(unweighted_graph(), compaction_threshold=0.5,
                         min_compaction_edges=2)
        g.snapshot()
        g.add_edges([(0, 3), (1, 0), (1, 3), (3, 0), (3, 1)])
        assert g.compactions >= 1
        assert g.delta_edges == 0

    def test_compaction_preserves_snapshot_identity(self):
        g1 = DynamicGraph(weighted_graph(), min_compaction_edges=10**9)
        g2 = DynamicGraph(weighted_graph(), min_compaction_edges=10**9)
        for g in (g1, g2):
            g.snapshot()
            g.add_edges([(3, 0), (4, 3)], weights=[1.5, 2.5])
            g.remove_edges([(0, 1)])
        g1.compact()  # explicit compaction on one of the twins only
        assert g1.compactions == 1 and g2.compactions == 0
        s1, s2 = g1.snapshot(), g2.snapshot()
        assert np.array_equal(s1.graph.col, s2.graph.col)
        assert np.array_equal(s1.graph.weights, s2.graph.weights)
        assert np.array_equal(s1.sampler_state.alias_slots,
                              s2.sampler_state.alias_slots)
        assert s1.epoch == s2.epoch == 1


class TestOneEpochOverlay:
    """A snapshot is the next base: the overlay holds one epoch of ops."""

    NUM_VERTICES = 30

    @staticmethod
    def reads(graph, vertices, pairs):
        rows = [(graph.degree(v), graph.neighbors(v).tolist(),
                 graph.neighbor_weights(v).tolist()) for v in vertices]
        edges, weights = graph.logical_edges()
        return (rows, [graph.has_edge(s, d) for s, d in pairs],
                edges.tolist(), None if weights is None else weights.tolist())

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_snapshot_empties_the_overlay_and_keeps_every_read(self, weighted):
        n = self.NUM_VERTICES
        rng = np.random.default_rng((37, weighted))
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        oracle = {pair: float(rng.uniform(0.5, 2.0)) if weighted else 1.0
                  for pair in pairs if rng.random() < 0.15}
        base_edges = sorted(oracle)
        graph = DynamicGraph(from_edges(
            base_edges, num_vertices=n,
            weights=[oracle[e] for e in base_edges] if weighted else None))
        graph.snapshot()
        vertices = sorted(rng.choice(n, size=10, replace=False).tolist())
        probes = [pairs[i] for i in rng.choice(len(pairs), size=60, replace=False)]

        def weights(count):
            return rng.uniform(0.5, 2.0, size=count) if weighted else None

        for _ in range(8):
            for _ in range(3):
                present, absent = sorted(oracle), sorted(set(pairs) - set(oracle))
                added = [absent[i] for i in rng.choice(len(absent), 6, replace=False)]
                added += [present[i] for i in rng.choice(len(present), 2, replace=False)]
                drawn = weights(len(added))
                graph.add_edges(added, weights=drawn)
                oracle.update(zip(added, [1.0] * len(added) if drawn is None
                                  else drawn.tolist()))
                present = sorted(oracle)
                removed = [present[i] for i in rng.choice(len(present), 5, replace=False)]
                graph.remove_edges(removed)
                for edge in removed:
                    del oracle[edge]
                if weighted:
                    present = sorted(oracle)
                    picked = [present[i] for i in rng.choice(len(present), 4, replace=False)]
                    drawn = weights(len(picked))
                    graph.update_weights(picked, drawn)
                    oracle.update(zip(picked, drawn.tolist()))
            assert graph.has_pending_updates and graph.delta_edges > 0
            before = self.reads(graph, vertices, probes)
            snapshot = graph.snapshot()
            assert graph.delta_edges == 0
            assert not graph.has_pending_updates
            assert self.reads(graph, vertices, probes) == before
            # An oracle sharing no code with the overlay or the merge.
            expected = sorted(oracle)
            assert before[2] == [list(edge) for edge in expected]
            if weighted:
                assert before[3] == [oracle[edge] for edge in expected]
            assert snapshot.graph.num_edges == graph.num_edges == len(oracle)

    def test_snapshot_per_batch_never_compacts(self):
        trace = sliding_window_trace(10, batch_size=200, seed=1)
        graph = trace.build_dynamic()
        graph.snapshot()
        for batch in trace.batches:
            apply_batch(graph, batch)
            graph.snapshot()
        assert len(trace.batches) > 10
        assert graph.compactions == 0
        assert graph.delta_peak <= max(batch.num_ops for batch in trace.batches)

    def test_a_superseded_epoch_is_released(self):
        graph = DynamicGraph(weighted_graph())
        first = graph.snapshot()
        epoch_zero = weakref.ref(first.graph)
        del first
        for edge, weight in (((3, 0), 1.5), ((4, 0), 2.5)):
            graph.add_edges([edge], weights=[weight])
            graph.snapshot()
        gc.collect()
        assert graph.epoch == 2
        assert epoch_zero() is None
