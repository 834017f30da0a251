"""Merge oracle: the flat batch merge == the per-vertex dict merge.

``DynamicGraph._merged_rows`` (one vectorized base + delta merge, behind
``snapshot``, ``compact`` and ``logical_edges``) must give every vertex
exactly the row ``DynamicGraph._merged_row`` (the dict merge, now only
the single-vertex read API) gives it — over inserts, removals,
re-weights, tombstone-then-resurrect and whole-row removals, weighted
and unweighted, before and after a compaction — on both branches of
the ``stable_order`` the merge sorts by: packed keys, as called, and the
``argsort`` fallback, reached by a bound patched too wide to pack.
"""

import numpy as np
import pytest

import repro.dynamic.graph
from repro.dynamic import DynamicGraph
from repro.graph import from_edges
from repro.graph.rows import stable_order
from repro.obs.trace import tracing

NUM_VERTICES = 12
WEIGHTED = pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])


@pytest.fixture(params=["packed", "fallback"])
def order_branch(request, monkeypatch):
    if request.param == "fallback":
        monkeypatch.setattr(
            repro.dynamic.graph, "stable_order",
            lambda keys, bound: stable_order(keys, 2**62))


def base_graph(weighted: bool, seed: int = 0):
    rng = np.random.default_rng(seed)
    edges = [(s, d) for s in range(NUM_VERTICES) for d in range(NUM_VERTICES)
             if s != d and s != 5 and rng.random() < 0.4]
    weights = rng.uniform(0.5, 2.0, size=len(edges)) if weighted else None
    return from_edges(edges, num_vertices=NUM_VERTICES, weights=weights, name="merge")


def assert_batch_matches_rows(graph: DynamicGraph, vertices) -> None:
    batch = graph._merged_rows(vertices)
    assert batch.vertices.tolist() == sorted(set(vertices))
    assert (batch.weights is None) == (not graph.is_weighted)
    for i, vertex in enumerate(batch.vertices.tolist()):
        lo, hi = batch.row_ptr[i], batch.row_ptr[i + 1]
        cols, weights = graph._merged_row(vertex)
        assert np.array_equal(batch.col[lo:hi], cols), vertex
        if graph.is_weighted:
            assert np.array_equal(batch.weights[lo:hi], weights), vertex
    assert batch.row_ptr[-1] == batch.col.size


def assert_whole_graph_matches_rows(graph: DynamicGraph) -> None:
    edges, weights = graph.logical_edges()
    rows = [graph._merged_row(v) for v in range(NUM_VERTICES)]
    sources = np.repeat(np.arange(NUM_VERTICES), [cols.size for cols, _ in rows])
    assert np.array_equal(edges[:, 0], sources)
    assert np.array_equal(edges[:, 1], np.concatenate([cols for cols, _ in rows]))
    if graph.is_weighted:
        assert np.array_equal(weights, np.concatenate([w for _, w in rows]))
    else:
        assert weights is None
    assert edges.shape[0] == graph.num_edges


def weights_for(graph: DynamicGraph, count: int, value: float):
    return np.full(count, value) if graph.is_weighted else None


@WEIGHTED
def test_every_kind_of_change_merges_like_the_dict_merge(weighted, order_branch):
    graph = DynamicGraph(base_graph(weighted))
    everyone = range(NUM_VERTICES)
    assert_batch_matches_rows(graph, everyone)          # no delta at all

    row0 = [(0, int(d)) for d in graph.neighbors(0)]
    absent0 = [(0, d) for d in range(1, NUM_VERTICES) if (0, d) not in row0]
    graph.add_edges(absent0[:2] + [(5, 7), (5, 2)],     # inserts, one into an empty row
                    weights=weights_for(graph, 4, 3.25))
    graph.remove_edges(row0[:2])                        # tombstones
    graph.add_edges(row0[:1], weights=weights_for(graph, 1, 0.125))   # resurrect one
    graph.remove_edges(absent0[:1])                     # delta-only edge dropped again
    if weighted:
        graph.update_weights(row0[2:3], [7.5])          # re-weight a base edge
    whole = [(3, int(d)) for d in graph.neighbors(3)]
    graph.remove_edges(whole)                           # whole row gone
    assert graph.degree(3) == 0

    assert_batch_matches_rows(graph, everyone)
    assert_batch_matches_rows(graph, [3, 0])            # unsorted subset
    assert_batch_matches_rows(graph, [3])               # a batch of one empty row
    assert_whole_graph_matches_rows(graph)

    # Dirty rows survive a compaction (which empties every delta buffer).
    snapshot_before = graph.logical_edges()
    graph.compact()
    assert graph.delta_edges == 0
    assert_batch_matches_rows(graph, everyone)
    after = graph.logical_edges()
    assert np.array_equal(after[0], snapshot_before[0])
    if weighted:
        assert np.array_equal(after[1], snapshot_before[1])


@WEIGHTED
@pytest.mark.parametrize("seed", range(8))
def test_random_sequences(seed, weighted, order_branch):
    rng = np.random.default_rng((seed, 31, weighted))
    graph = DynamicGraph(base_graph(weighted, seed))
    for _ in range(6):
        present = [tuple(edge) for edge in graph.logical_edges()[0].tolist()]
        absent = [(s, d) for s in range(NUM_VERTICES) for d in range(NUM_VERTICES)
                  if s != d and (s, d) not in set(present)]
        removed = [present[i] for i in rng.choice(len(present), size=5, replace=False)]
        graph.remove_edges(removed)
        added = [absent[i] for i in rng.choice(len(absent), size=5, replace=False)]
        added += removed[:2]                            # tombstone, then resurrect
        graph.add_edges(added, weights=(
            rng.uniform(0.5, 2.0, size=len(added)) if weighted else None))
        assert_batch_matches_rows(graph, range(NUM_VERTICES))
        assert_whole_graph_matches_rows(graph)
        if rng.random() < 0.3:
            graph.snapshot()


def test_snapshot_span_reports_dirty_edges_and_three_children():
    graph = DynamicGraph(base_graph(True))
    graph.snapshot()
    graph.add_edges([(5, 1), (0, 5)], weights=[1.5, 2.5])
    dirty_edges = graph.degree(5) + graph.degree(0)
    with tracing() as tracer:
        tracer.clear()
        graph.snapshot()
        events = tracer.events()
    names = [event.name for event in events]
    assert names == ["dynamic.merge", "dynamic.assemble", "dynamic.rebuild_rows",
                     "dynamic.snapshot"]
    parent = events[-1]
    assert parent.args == {"epoch": 1, "dirty_rows": 2, "dirty_edges": dirty_edges}
    for child in events[:-1]:
        assert parent.ts <= child.ts and child.ts + child.dur <= parent.ts + parent.dur


def test_last_writer_wins_and_a_winning_tombstone_drops_the_edge(order_branch):
    graph = DynamicGraph(from_edges([(0, 1), (0, 2), (0, 3), (1, 0)], num_vertices=4,
                                    weights=[1.0, 2.0, 3.0, 4.0]))
    graph.update_weights([(0, 1)], [9.0])           # delta over base: delta wins
    graph.remove_edges([(0, 2)])                    # tombstone over base: edge gone
    graph.remove_edges([(0, 3)])
    graph.add_edges([(0, 3)], weights=[0.5])        # insert over tombstone: back
    batch = graph._merged_rows([0, 1])
    assert batch.row_ptr.tolist() == [0, 2, 3]
    assert batch.col.tolist() == [1, 3, 0]
    assert batch.weights.tolist() == [9.0, 0.5, 4.0]
    assert_batch_matches_rows(graph, [0, 1])
