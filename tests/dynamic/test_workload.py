"""The sliding-window update trace: determinism and structural invariants."""

import numpy as np

from repro.dynamic import DynamicGraph, apply_batch, sliding_window_trace


def replay(trace):
    graph = trace.build_dynamic()
    for batch in trace.batches:
        apply_batch(graph, batch)
    return graph


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = sliding_window_trace(6, edge_factor=4, batch_size=50, num_batches=4, seed=9)
        b = sliding_window_trace(6, edge_factor=4, batch_size=50, num_batches=4, seed=9)
        assert np.array_equal(a.base_edges, b.base_edges)
        assert len(a.batches) == len(b.batches)
        for x, y in zip(a.batches, b.batches):
            assert np.array_equal(x.add, y.add)
            assert np.array_equal(x.remove, y.remove)

    def test_different_seed_differs(self):
        a = sliding_window_trace(6, edge_factor=4, batch_size=50, seed=1)
        b = sliding_window_trace(6, edge_factor=4, batch_size=50, seed=2)
        assert not np.array_equal(a.base_edges, b.base_edges)


class TestSlidingWindow:
    def test_window_keeps_edge_count_stable(self):
        trace = sliding_window_trace(6, edge_factor=4, batch_size=40, seed=4)
        graph = trace.build_dynamic()
        start_edges = graph.num_edges
        for batch in trace.batches:
            apply_batch(graph, batch)
            # adds == removes per batch, so |E| never drifts
            assert graph.num_edges == start_edges

    def test_snapshot_after_full_replay_is_consistent(self):
        trace = sliding_window_trace(6, edge_factor=4, batch_size=40, seed=4)
        graph = replay(trace)
        snapshot = graph.snapshot()
        assert snapshot.graph.num_edges == graph.num_edges

    def test_unweighted_variant(self):
        trace = sliding_window_trace(6, edge_factor=4, batch_size=50, seed=3,
                                     weighted=False)
        assert trace.base_weights is None
        assert replay(trace).snapshot().graph.weights is None

    def test_build_dynamic_returns_dynamic_graph(self):
        trace = sliding_window_trace(6, edge_factor=4, batch_size=50, seed=1)
        assert isinstance(trace.build_dynamic(), DynamicGraph)
