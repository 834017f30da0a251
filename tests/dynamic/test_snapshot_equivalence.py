"""Acceptance: walks on a snapshot == walks on a fresh static build.

After an arbitrary update trace, ``DynamicGraph.snapshot()`` must be
indistinguishable from a ``CSRGraph`` freshly built from the same
logical edge set — not statistically, but bit-for-bit: identical paths
and identical ``EngineStats``, whether the engine is built on the
snapshot or *swapped* onto it mid-life (``PreparedEngine.swap_snapshot``).
"""

import numpy as np
import pytest

from repro.dynamic import DynamicGraph, apply_batch, sliding_window_trace
from repro.dynamic.bench import rebuild_from_edge_set
from repro.engines import prepare_engine, run_software_walks
from repro.errors import WalkConfigError
from repro.walks import DeepWalkSpec, EngineStats, URWSpec, make_queries


def mutation_trace():
    return sliding_window_trace(7, edge_factor=4, batch_size=120,
                                num_batches=3, weighted=True, seed=11)


def mutated_dynamic_graph():
    """A dynamic graph driven through a real insert+delete trace."""
    trace = mutation_trace()
    graph = trace.build_dynamic()
    graph.snapshot()
    for batch in trace.batches:
        apply_batch(graph, batch)
        graph.snapshot()
    return graph


def replayed_static_graph(graph: DynamicGraph):
    """A from-scratch build of the trace replayed into a plain dict: the
    dynamic graph's own edges are its last snapshot's, so cannot check it."""
    static_graph, _ = rebuild_from_edge_set(*mutation_trace().final_edges(),
                                            graph.num_vertices, graph.name)
    return static_graph


def assert_stats_equal(a: EngineStats, b: EngineStats):
    assert a.total_hops == b.total_hops
    assert a.sampling_proposals == b.sampling_proposals
    assert a.neighbor_reads == b.neighbor_reads
    assert a.early_terminations == b.early_terminations
    assert a.dangling_terminations == b.dangling_terminations
    assert a.probabilistic_terminations == b.probabilistic_terminations
    assert a.length_terminations == b.length_terminations
    assert a.per_query_hops == b.per_query_hops


@pytest.fixture(scope="module")
def state():
    graph = mutated_dynamic_graph()
    snapshot = graph.snapshot()
    static_graph = replayed_static_graph(graph)
    spec = DeepWalkSpec(max_length=12)
    queries = make_queries(static_graph, 48, seed=5)
    return snapshot, static_graph, spec, queries


def test_walks_bit_identical_on_snapshot(state):
    snapshot, static_graph, spec, queries = state
    dyn_stats, static_stats = EngineStats(), EngineStats()
    dyn_results, _ = run_software_walks(
        "batch", snapshot.graph, spec, queries, seed=3, stats=dyn_stats
    )
    static_results, _ = run_software_walks(
        "batch", static_graph, spec, queries, seed=3, stats=static_stats
    )
    assert len(dyn_results.paths) == len(queries)
    for a, b in zip(dyn_results.paths, static_results.paths):
        assert np.array_equal(a, b)
    assert_stats_equal(dyn_stats, static_stats)


@pytest.mark.parametrize("engine", ["batch", "reference"])
def test_swapped_engine_matches_fresh_engine(state, engine):
    snapshot, static_graph, spec, queries = state
    trace_base = sliding_window_trace(7, edge_factor=4, batch_size=120,
                                      num_batches=3, weighted=True,
                                      seed=11).build_dynamic()
    with prepare_engine(engine, trace_base.snapshot().graph, spec) as swapped:
        swapped.swap_snapshot(snapshot)
        swap_stats = EngineStats()
        swap_results = swapped.run(queries, seed=3, stats=swap_stats)
    with prepare_engine(engine, static_graph, spec) as fresh:
        fresh_stats = EngineStats()
        fresh_results = fresh.run(queries, seed=3, stats=fresh_stats)
    for a, b in zip(swap_results.paths, fresh_results.paths):
        assert np.array_equal(a, b)
    assert_stats_equal(swap_stats, fresh_stats)


def test_swap_accepts_bare_csr_graph(state):
    snapshot, static_graph, spec, queries = state
    with prepare_engine("batch", snapshot.graph, spec) as engine:
        engine.swap_snapshot(static_graph)  # plain CSRGraph, no state
        results = engine.run(queries, seed=3)
    baseline, _ = run_software_walks("batch", static_graph, spec, queries, seed=3)
    for a, b in zip(results.paths, baseline.paths):
        assert np.array_equal(a, b)


def test_swap_rejects_non_graphs(state):
    snapshot, _, spec, _ = state
    with prepare_engine("batch", snapshot.graph, spec) as engine:
        with pytest.raises(WalkConfigError, match="expected a CSRGraph"):
            engine.swap_snapshot(object())


def test_uniform_kernel_swap_needs_no_state(state):
    """URW's kernel has no prepared state; swapping stays bit-identical."""
    snapshot, static_graph, _, queries = state
    spec = URWSpec(max_length=8)
    with prepare_engine("batch", static_graph, spec) as engine:
        engine.swap_snapshot(snapshot)
        results = engine.run(queries, seed=9)
    baseline, _ = run_software_walks("batch", snapshot.graph, spec, queries,
                                     seed=9)
    for a, b in zip(results.paths, baseline.paths):
        assert np.array_equal(a, b)


# --- where the edge filter is (and is not) built ---------------------------


@pytest.fixture
def filter_builds(monkeypatch):
    """Sizes of the key arrays every ``build_edge_filter`` call received."""
    from repro.sampling import vectorized

    builds = []
    real = vectorized.build_edge_filter

    def counted(edge_keys):
        builds.append(edge_keys.size)
        return real(edge_keys)

    monkeypatch.setattr(vectorized, "build_edge_filter", counted)
    return builds


def test_first_order_snapshots_and_swaps_never_build_the_filter(filter_builds):
    graph = mutated_dynamic_graph()  # four snapshots along an update trace
    snapshot = graph.snapshot()
    spec = DeepWalkSpec(max_length=12)
    queries = make_queries(snapshot.graph, 24, seed=5)
    with prepare_engine("batch", snapshot.graph, spec) as engine:
        engine.swap_snapshot(snapshot)
        engine.run(queries, seed=3)
    assert filter_builds == []


def test_edge_keys_are_built_on_the_first_request_only(monkeypatch):
    """``snapshot()`` used to rebuild the sorted keys at every epoch; now
    they are derived, once per state, when something second-order asks."""
    import repro.dynamic.state as state_module
    from repro.sampling.vectorized import build_edge_keys
    from repro.walks import Node2VecSpec

    builds = []

    def counted(graph):
        builds.append(graph.num_edges)
        return build_edge_keys(graph)

    monkeypatch.setattr(state_module, "build_edge_keys", counted)
    graph = mutated_dynamic_graph()  # four snapshots along an update trace
    snapshot = graph.snapshot()
    with prepare_engine("batch", snapshot.graph, DeepWalkSpec(max_length=12)) as engine:
        engine.swap_snapshot(snapshot)
    assert builds == []
    state = snapshot.sampler_state
    spec = Node2VecSpec(p=2.0, q=0.5, strategy="rejection", max_length=12)
    with prepare_engine("batch", snapshot.graph, spec) as engine:
        engine.swap_snapshot(snapshot)
        engine.swap_snapshot(snapshot)
    assert builds == [snapshot.graph.num_edges]
    assert state.arrays()["edge_keys"] is state.edge_keys
    assert state.edge_set is state.edge_set  # derived once per state
    assert np.array_equal(state.edge_keys, build_edge_keys(snapshot.graph))
    assert not state.edge_keys.flags.writeable
    assert len(builds) == 1


def test_second_order_swap_builds_one_filter_per_state(filter_builds):
    from repro.sampling.vectorized import EdgeSet
    from repro.walks import Node2VecSpec

    graph = mutated_dynamic_graph()
    snapshot = graph.snapshot()
    static_graph = replayed_static_graph(graph)
    spec = Node2VecSpec(p=2.0, q=0.5, strategy="rejection", max_length=12)
    queries = make_queries(static_graph, 48, seed=5)
    expected = EdgeSet.build(static_graph)
    builds, held = [], []
    for _ in range(3):
        with prepare_engine("batch", static_graph, spec) as engine:
            filter_builds.clear()
            engine.swap_snapshot(snapshot)
            builds.append(len(filter_builds))
            arrays = engine._kernel.state_arrays()
            held.append(arrays["edge_filter"])
            swap_stats = EngineStats()
            swapped = engine.run(queries, seed=3, stats=swap_stats)
        fresh_stats = EngineStats()
        fresh, _ = run_software_walks("batch", static_graph, spec, queries, seed=3,
                                      stats=fresh_stats)
        for a, b in zip(swapped.paths, fresh.paths):
            assert np.array_equal(a, b)
        assert_stats_equal(swap_stats, fresh_stats)
    # Built on the first request, then handed out as it is.
    assert builds == [1, 0, 0]
    assert np.array_equal(held[0], expected.filter)
    assert held[1] is held[0] and held[2] is held[0]
