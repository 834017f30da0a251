"""Bit-identity acceptance for the fused per-walker jit kernels.

The jit engine's contract is the strongest one in the registry: its
fused nopython loop must replay the batch engine's *exact* draw
sequence — same ``SeedSequence((seed, query_id))`` substreams, same
per-strategy consumption pattern, same tie-breaks — so paths, hop
counts, and every ``EngineStats`` counter are bit-identical across all
six algorithms and both sampler modes.  These tests drive the kernel
itself through :func:`run_walks_jit_arrays`, which executes the same
code path interpreted when numba is absent (the ``@njit`` shim is an
identity decorator), so the equivalence proof runs on every CI host,
compiled or not.

Also covered: dynamic snapshot swaps rebind the jit state bit-
identically, the serving layer reproduces the offline replay oracle
under ``engine="jit"``, parallel workers dispatch shards through the
jit core (``backend="jit"``), and the distribution agrees with the
pure-Python reference under the shared chi-square oracle.
"""

import asyncio
import functools

import numpy as np
import pytest
from stat_helpers import CHI_SQUARE_ALPHA, chi_square_compare

from repro.bench.workloads import make_spec
from repro.cli import ALGORITHMS
from repro.engines import prepare_engine, run_software_walks
from repro.errors import WalkConfigError
from repro.graph import load_dataset
from repro.graph.datasets import assign_metapath_schema
from repro.sampling.hybrid import make_walk_kernel
from repro.walks import EngineStats, WalkResults, make_queries
from repro.walks.batch import run_walks_batch_arrays
from repro.walks.jit import (
    jit_state_from_kernel,
    run_walks_jit_arrays,
)

NUM_QUERIES = 120
WALK_LENGTH = 10
SEED = 31

SCALAR_STATS = (
    "total_hops",
    "sampling_proposals",
    "neighbor_reads",
    "dangling_terminations",
    "early_terminations",
    "probabilistic_terminations",
    "length_terminations",
)


@functools.lru_cache(maxsize=None)
def _graph():
    """Weighted + metapath-typed so every strategy family has work."""
    graph = load_dataset("WG", scale=0.08, seed=1, weighted=True)
    return assign_metapath_schema(graph, num_types=3, seed=1)


@functools.lru_cache(maxsize=None)
def _arrays():
    queries = make_queries(_graph(), NUM_QUERIES, seed=5)
    starts = np.fromiter((q.start_vertex for q in queries), dtype=np.int64,
                         count=NUM_QUERIES)
    query_ids = np.fromiter((q.query_id for q in queries), dtype=np.int64,
                            count=NUM_QUERIES)
    return queries, starts, query_ids


def _spec(algorithm):
    spec = make_spec(algorithm)
    spec.max_length = WALK_LENGTH
    return spec


def _assert_same_walks(b_paths, b_hops, j_paths, j_hops):
    """Padded buffers may differ in width; the walks must not."""
    assert np.array_equal(b_hops, j_hops)
    for row in range(b_hops.shape[0]):
        n = int(b_hops[row]) + 1
        assert np.array_equal(b_paths[row, :n], j_paths[row, :n])


def _assert_stats_equal(a: EngineStats, b: EngineStats):
    for name in SCALAR_STATS:
        assert getattr(a, name) == getattr(b, name), name
    assert a.per_query_hops == b.per_query_hops


@pytest.mark.parametrize("sampler", ["default", "auto"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_kernel_bit_identical_to_batch(algorithm, sampler):
    """12 cells: every algorithm x sampler mode, straight through the
    fused kernel against the vectorized superstep engine."""
    graph = _graph()
    spec = _spec(algorithm)
    _, starts, query_ids = _arrays()
    kernel = make_walk_kernel(spec.make_sampler(), sampler)
    kernel.prepare(graph)
    b_stats, j_stats = EngineStats(), EngineStats()
    b_paths, b_hops = run_walks_batch_arrays(
        graph, spec, kernel, starts, query_ids, seed=SEED, stats=b_stats
    )
    state = jit_state_from_kernel(graph, spec, kernel)
    j_paths, j_hops = run_walks_jit_arrays(
        graph, spec, state, starts, query_ids, seed=SEED, stats=j_stats
    )
    _assert_same_walks(b_paths, b_hops, j_paths, j_hops)
    _assert_stats_equal(b_stats, j_stats)


def test_registry_and_prepared_engine_agree_with_batch():
    """The ``--engine jit`` entry paths (one-shot registry run and
    prepared handle) return batch-identical ``WalkResults``."""
    graph = _graph()
    spec = _spec("DeepWalk")
    queries, _, _ = _arrays()
    batch, _ = run_software_walks("batch", graph, spec, queries, seed=SEED)
    one_shot, _ = run_software_walks("jit", graph, spec, queries, seed=SEED)
    with prepare_engine("jit", graph, spec) as engine:
        prepared = engine.run(queries, seed=SEED)
    assert batch.num_queries == one_shot.num_queries == prepared.num_queries
    for a, b, c in zip(batch.paths, one_shot.paths, prepared.paths):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


def test_snapshot_swap_rebinds_jit_state():
    """After ``swap_snapshot`` onto a mutated dynamic graph, the rebound
    jit state must drive the kernel bit-identically to a batch kernel
    freshly prepared on the same snapshot."""
    from repro.dynamic import apply_batch, sliding_window_trace

    trace = sliding_window_trace(7, edge_factor=4, batch_size=120,
                                 num_batches=2, weighted=True, seed=11)
    dynamic = trace.build_dynamic()
    base = dynamic.snapshot()
    for batch in trace.batches:
        apply_batch(dynamic, batch)
    snapshot = dynamic.snapshot()

    spec = _spec("DeepWalk")
    queries = make_queries(base.graph, 48, seed=5)
    starts = np.fromiter((q.start_vertex for q in queries), dtype=np.int64)
    query_ids = np.fromiter((q.query_id for q in queries), dtype=np.int64)

    with prepare_engine("jit", base.graph, spec) as engine:
        engine.swap_snapshot(snapshot)
        # Drive the fused kernel directly on the swapped-in state so the
        # rebind is exercised even where numba is absent (engine.run
        # would fall back to the held batch kernel there).
        j_stats = EngineStats()
        j_paths, j_hops = run_walks_jit_arrays(
            snapshot.graph, spec,
            jit_state_from_kernel(snapshot.graph, spec, engine._kernel),
            starts, query_ids,
            seed=SEED, stats=j_stats,
        )
        swap_results = engine.run(queries, seed=SEED)

    kernel = make_walk_kernel(spec.make_sampler(), "default")
    kernel.prepare(snapshot.graph)
    b_stats = EngineStats()
    b_paths, b_hops = run_walks_batch_arrays(
        snapshot.graph, spec, kernel, starts, query_ids, seed=SEED,
        stats=b_stats,
    )
    _assert_same_walks(b_paths, b_hops, j_paths, j_hops)
    _assert_stats_equal(b_stats, j_stats)
    for path, row, hops in zip(swap_results.paths, b_paths, b_hops):
        assert np.array_equal(path, row[: int(hops) + 1])


def test_serve_layer_reproduces_offline_replay():
    """``WalkService(engine="jit")`` serves the exact paths the offline
    replay oracle predicts for each ``(seed, query_id)``."""
    from repro.serve import ServeConfig, WalkService, replay_paths, run_open_loop

    graph = _graph()
    spec = _spec("DeepWalk")
    rng = np.random.default_rng(3)
    candidates = np.nonzero(graph.degrees() > 0)[0]
    starts = rng.choice(candidates, size=32, replace=True)
    oracle = replay_paths(
        graph, spec, {i: int(v) for i, v in enumerate(starts)}, seed=SEED
    )

    async def _drive():
        config = ServeConfig(max_batch=8, max_wait_ms=5.0, queue_depth=128)
        service = WalkService(graph, spec, engine="jit", seed=SEED,
                              config=config)
        async with service:
            return await run_open_loop(service, starts)

    report = asyncio.run(_drive())
    assert not report.dropped
    assert report.completed == len(starts)
    for query_id, expected in oracle.items():
        assert np.array_equal(report.paths[query_id], expected)


def test_parallel_workers_dispatch_jit_shards(monkeypatch):
    """``backend="jit"`` runs the fused core inside each pool worker,
    bit-identically to batch workers.  Forcing the availability flag in
    the parent keeps the backend from being downgraded, so the workers
    genuinely take the jit dispatch path (interpreted where numba is
    absent — same code, same bits)."""
    import repro.parallel.engine as parallel_engine

    monkeypatch.setattr(parallel_engine, "NUMBA_AVAILABLE", True)
    graph = _graph()
    spec = _spec("Node2Vec")
    queries, _, _ = _arrays()
    batch, _ = run_software_walks("batch", graph, spec, queries, seed=SEED)
    jit, _ = run_software_walks("parallel", graph, spec, queries, seed=SEED,
                                workers=2, backend="jit")
    assert batch.num_queries == jit.num_queries
    for a, b in zip(batch.paths, jit.paths):
        assert np.array_equal(a, b)
    assert batch.total_steps == jit.total_steps


def test_unknown_backend_rejected_naming_choices():
    from repro.graph import cycle_graph
    from repro.walks import Query, URWSpec

    with pytest.raises(WalkConfigError, match="backend") as excinfo:
        run_software_walks("parallel", cycle_graph(4), URWSpec(max_length=3),
                           [Query(0, 0)], seed=1, workers=1, backend="cuda")
    message = str(excinfo.value)
    assert "batch" in message and "jit" in message
    with pytest.raises(WalkConfigError, match="does not accept"):
        run_software_walks("jit", cycle_graph(4), URWSpec(max_length=3),
                           [Query(0, 0)], seed=1, backend="jit")


def test_agrees_with_reference_distribution():
    """One chi-square cell: the jit kernel's visit histogram matches the
    pure-Python oracle at an independent seed (Node2Vec — the hardest
    RNG consumer: rejection rounds + second-order probes)."""
    graph = _graph()
    spec = _spec("Node2Vec")
    queries, starts, query_ids = _arrays()
    kernel = make_walk_kernel(spec.make_sampler(), "default")
    kernel.prepare(graph)
    state = jit_state_from_kernel(graph, spec, kernel)
    jit_results = WalkResults()
    jit_results.extend_from_matrix(*run_walks_jit_arrays(
        graph, spec, state, starts, query_ids, seed=SEED))
    oracle, _ = run_software_walks("reference", graph, spec, queries,
                                   seed=SEED + 1)
    p = chi_square_compare(
        jit_results.visit_counts(graph.num_vertices),
        oracle.visit_counts(graph.num_vertices),
    )
    assert p > CHI_SQUARE_ALPHA, (
        f"jit kernel diverges from the reference distribution (p={p:.5f})"
    )
