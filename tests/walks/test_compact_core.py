"""The compact-frontier batch core: golden digests, compaction edge cases,
the dense adapter and the ``stream_idx=None`` identity path.

``golden_compact_core.json`` was generated on the commit *before* the
compact core landed (run this file as a script against that tree), so
"bit-identical to before" is checked against the old masked-lane core and
not only against sibling engines that now share the step function.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import make_spec
from repro.cli import ALGORITHMS
from repro.graph import from_edges, rmat
from repro.graph.datasets import assign_metapath_schema, thunderrw_weights
from repro.walks import (
    EngineStats,
    MetaPathSpec,
    PPRSpec,
    Query,
    URWSpec,
    make_queries,
    run_walks_batch,
)
from repro.walks import batch

GOLDEN_PATH = Path(__file__).with_name("golden_compact_core.json")
GOLDEN_SEED = 13
GOLDEN_LENGTH = 20
GOLDEN_QUERIES = 400


def golden_key(algorithm):
    """A cell's key: the algorithm under its spec's own (``default``) kernel."""
    return f"{algorithm}/default"


def golden_graph():
    """Pinned weighted, typed RMAT-10 (directed: has dangling vertices)."""
    graph = rmat(10, edge_factor=8, seed=7)
    graph = graph.with_weights(thunderrw_weights(graph, 7))
    return assign_metapath_schema(graph, num_types=3, seed=7)


def golden_queries(graph):
    # Dangling starts included: the first compaction point.
    return make_queries(graph, GOLDEN_QUERIES, seed=5, require_outgoing=False)


def golden_cell(graph, queries, algorithm) -> dict:
    """Digest of the paths plus every ``EngineStats`` field of one
    ``run_walks_batch`` run."""
    spec = make_spec(algorithm)
    spec.max_length = GOLDEN_LENGTH
    stats = EngineStats()
    results = run_walks_batch(graph, spec, queries, seed=GOLDEN_SEED, stats=stats)
    digest = hashlib.sha256()
    for path in results.paths:
        assert path.dtype == np.int64
        digest.update(np.int64(path.size).tobytes())
        digest.update(path.tobytes())
    cell = dataclasses.asdict(stats)
    per_query_hops = np.asarray(cell.pop("per_query_hops"), dtype=np.int64)
    cell["per_query_hops_sha256"] = hashlib.sha256(per_query_hops.tobytes()).hexdigest()
    cell["paths_sha256"] = digest.hexdigest()
    cell["total_steps"] = results.total_steps
    return cell


def golden_table() -> dict:
    graph = golden_graph()
    queries = golden_queries(graph)
    return {
        golden_key(algorithm): golden_cell(graph, queries, algorithm)
        for algorithm in ALGORITHMS
    }


# --- (a) bit-identity to the pre-compaction core -------------------------


@pytest.fixture(scope="module")
def golden_inputs():
    graph = golden_graph()
    return graph, golden_queries(graph)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_matches_pre_compaction_golden(golden_inputs, algorithm):
    expected = json.loads(GOLDEN_PATH.read_text())[golden_key(algorithm)]
    assert golden_cell(*golden_inputs, algorithm) == expected


@pytest.mark.parametrize("lanes", [2, 3])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_golden_cells_hold_on_any_lane_count(monkeypatch, golden_inputs, algorithm, lanes):
    """Lanes walk their row blocks on their own threads through the one
    prepared kernel; the same pre-compaction digests must come back."""
    monkeypatch.setattr(batch, "usable_cpus", lambda: lanes)
    monkeypatch.setattr(batch, "_MIN_BLOCK_WALKERS", GOLDEN_QUERIES // lanes)
    assert batch.lane_count(GOLDEN_QUERIES) == lanes
    expected = json.loads(GOLDEN_PATH.read_text())[golden_key(algorithm)]
    assert golden_cell(*golden_inputs, algorithm) == expected


# --- (b) edge cases the compaction introduces -----------------------------


def _chain_graph():
    """0 -> 1 -> 2 -> 3 (dangling); 4 isolated; 5 <-> 6."""
    return from_edges([(0, 1), (1, 2), (2, 3), (5, 6), (6, 5)], num_vertices=7)


def _run(graph, spec, queries, seed=3):
    stats = EngineStats()
    return run_walks_batch(graph, spec, queries, seed=seed, stats=stats), stats


def test_zero_queries():
    results, stats = _run(_chain_graph(), URWSpec(max_length=4), [])
    assert results.num_queries == 0 and results.paths == [] and stats.total_hops == 0
    assert results.lengths().size == 0


def test_every_start_dangling():
    queries = [Query(0, 3), Query(1, 4), Query(2, 3)]
    results, stats = _run(_chain_graph(), URWSpec(max_length=5), queries)
    assert [p.tolist() for p in results.paths] == [[3], [4], [3]]
    assert stats.dangling_terminations == 3 and stats.sampling_proposals == 0
    assert stats.per_query_hops == [0, 0, 0]


def test_one_walker():
    results, stats = _run(_chain_graph(), URWSpec(max_length=10), [Query(9, 0)])
    assert results.path_of(0).tolist() == [0, 1, 2, 3]
    assert stats.per_query_hops == [3] and stats.dangling_terminations == 1


def test_all_walkers_die_on_the_same_step():
    queries = [Query(i, 1) for i in range(6)]
    results, stats = _run(_chain_graph(), URWSpec(max_length=10), queries)
    assert all(p.tolist() == [1, 2, 3] for p in results.paths)
    assert stats.dangling_terminations == 6 and stats.length_terminations == 0
    assert results.total_steps == 12


def test_mixed_lifetimes_keep_row_alignment():
    # Rows die at steps 0, 3, 1 and never: the survivors' rows must not shift.
    queries = [Query(0, 4), Query(1, 0), Query(2, 2), Query(3, 5)]
    results, stats = _run(_chain_graph(), URWSpec(max_length=6), queries)
    assert [p.tolist() for p in results.paths] == [
        [4], [0, 1, 2, 3], [2, 3], [5, 6, 5, 6, 5, 6, 5],
    ]
    assert stats.per_query_hops == [0, 3, 1, 6]
    assert stats.length_terminations == 1 and stats.dangling_terminations == 3


def test_metapath_early_termination_empties_frontier_mid_run():
    # Every edge has type 0; the pattern asks for type 1 on the second
    # hop, so the whole frontier terminates early at step 1.
    graph = from_edges([(0, 1), (1, 0)], num_vertices=2)
    graph = assign_metapath_schema(graph, num_types=1, seed=0)
    spec = MetaPathSpec(pattern=[0, 1], max_length=6)
    results, stats = _run(graph, spec, [Query(i, i % 2) for i in range(5)])
    assert all(p.size == 2 for p in results.paths)
    assert stats.early_terminations == 5 and stats.total_hops == 5
    assert stats.sampling_proposals == 10  # the terminating attempt counts


def test_ppr_teleport_with_unit_length():
    graph = golden_graph()
    queries = make_queries(graph, 300, seed=1)
    results, stats = _run(graph, PPRSpec(alpha=0.5, max_length=1), queries)
    assert stats.per_query_hops == [1] * 300
    assert 0 < stats.probabilistic_terminations < 300
    assert stats.probabilistic_terminations + stats.length_terminations == 300


def test_duplicate_wide_and_permuted_query_ids():
    graph = golden_graph()
    starts = make_queries(graph, 40, seed=2)
    ids = [7, 7, 1 << 32, (1 << 40) + 5, 0] + list(range(100, 135))
    queries = [Query(qid, q.start_vertex) for qid, q in zip(ids, starts)]
    spec = make_spec("PPR")
    results, _ = _run(graph, spec, queries)
    # Same (seed, id, start) -> same path, wherever it sits in the batch.
    twin = Query(7, queries[0].start_vertex)
    alone, _ = _run(graph, spec, [twin])
    assert np.array_equal(results.path_of(0), alone.path_of(0))
    order = np.random.default_rng(0).permutation(len(queries))
    permuted, _ = _run(graph, spec, [queries[i] for i in order])
    for new_position, old_position in enumerate(order):
        assert np.array_equal(permuted.path_of(new_position), results.path_of(old_position))


# --- (c) the dense adapter ------------------------------------------------


@pytest.mark.parametrize("algorithm", ["DeepWalk", "PPR", "MetaPath"])
def test_dense_adapter_equals_flat_rows(golden_inputs, algorithm):
    from repro.sampling.vectorized import make_kernel
    from repro.walks.base import unpack_queries
    from repro.walks.batch import run_walks_batch_arrays, run_walks_batch_flat

    graph, queries = golden_inputs
    spec = make_spec(algorithm)
    spec.max_length = GOLDEN_LENGTH
    kernel = make_kernel(spec.make_sampler())
    kernel.prepare(graph)
    ids, starts = unpack_queries(queries)
    flat_stats, dense_stats = EngineStats(), EngineStats()
    flat, offsets = run_walks_batch_flat(graph, spec, kernel, starts, ids,
                                         seed=GOLDEN_SEED, stats=flat_stats)
    paths, hops = run_walks_batch_arrays(graph, spec, kernel, starts, ids,
                                         seed=GOLDEN_SEED, stats=dense_stats)
    assert paths.dtype == np.int64 and paths.shape == (len(queries), hops.max() + 1)
    assert np.array_equal(hops, np.diff(offsets) - 1)
    for row, a, b in zip(paths, offsets[:-1], offsets[1:]):
        assert np.array_equal(row[: b - a], flat[a:b])
    assert flat_stats == dense_stats


# --- (d) stream_idx=None is the identity selection ------------------------


def test_identity_stream_draws_match_explicit_arange():
    from repro.sampling.vectorized import QueryStreams

    ids = np.arange(50) * 3
    implicit, explicit = QueryStreams(5, ids), QueryStreams(5, ids)
    everyone = np.arange(ids.size)
    bounds = np.arange(1, ids.size + 1)
    counts = np.arange(ids.size) % 4
    for _ in range(3):
        assert np.array_equal(implicit.uniforms(), explicit.uniforms(everyone))
        assert np.array_equal(implicit.randints(bounds), explicit.randints(bounds, everyone))
        assert np.array_equal(implicit.element_uniforms(None, counts),
                              explicit.element_uniforms(everyone, counts))
    assert np.array_equal(implicit._state, explicit._state)


def test_identity_draws_advance_carried_states_in_place():
    from repro.sampling.vectorized import QueryStreams, seed_sequence_states

    carried = seed_sequence_states(1, np.arange(8))
    before = carried.copy()
    QueryStreams.from_states(carried).uniforms()
    assert not np.array_equal(carried, before)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_kernels_sample_identically_without_stream_idx(golden_inputs, algorithm):
    from repro.sampling.vectorized import QueryStreams, make_kernel

    graph, _ = golden_inputs
    spec = make_spec(algorithm)
    kernel = make_kernel(spec.make_sampler())
    kernel.prepare(graph)
    rng = np.random.default_rng(4)
    current = rng.choice(np.flatnonzero(graph.degrees() > 0), size=200)
    # First hops and later hops mixed: the rejection kernel's sub-index path.
    previous = np.where(rng.random(200) < 0.3, -1, graph.col[graph.row_ptr[current]])
    implicit, explicit = QueryStreams(9, np.arange(200)), QueryStreams(9, np.arange(200))
    admissible = spec.admissible_type(np.zeros(200, dtype=np.int64))
    for previous_arg in (previous, np.maximum(previous, 0), np.full(200, -1)):
        degrees = graph.degrees()[current]
        a = kernel.sample(graph, current, previous_arg, admissible, implicit, None, degrees)
        b = kernel.sample(graph, current, previous_arg, admissible, explicit,
                          np.arange(200), degrees)
        assert np.array_equal(a.vertex, b.vertex)
        assert (a.proposals, a.neighbor_reads) == (b.proposals, b.neighbor_reads)
    assert np.array_equal(implicit._state, explicit._state)


# --- guards: the dense matrix and the masked lanes stay gone ---------------


def test_run_peak_memory_stays_near_the_flat_buffer():
    """``tracemalloc`` peak of one prepared ``engine.run`` over the bytes
    of the flat buffer it returns.  Measured 2.88 on the masked-lane core
    (dense matrix + regrow + masked copy) and 2.19 on the compact core
    (vertex log + flat buffer); the bound sits midway, so a
    ``(num_queries, width)`` allocation cannot come back unnoticed."""
    import tracemalloc

    from repro.engines import prepare_engine
    from repro.walks import DeepWalkSpec

    graph = rmat(12, edge_factor=16, seed=3)
    graph = graph.with_weights(thunderrw_weights(graph, 3))
    queries = make_queries(graph, 5000, seed=4)
    with prepare_engine("batch", graph, DeepWalkSpec(max_length=80)) as engine:
        engine.run(queries, seed=1)
        tracemalloc.start()
        try:
            results = engine.run(queries, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    flat_bytes = (results.total_steps + results.num_queries) * 8
    assert peak / flat_bytes < 2.53


def test_core_has_no_masked_lane_calls():
    """The batch core compacts; it never re-derives the live set from a
    mask (``np.nonzero``/``flatnonzero``/``where``) nor splits a buffer."""
    import ast

    import repro.walks.batch as batch

    banned = {"nonzero", "flatnonzero", "argwhere", "where", "split", "array_split"}
    tree = ast.parse(Path(batch.__file__).read_text())
    called = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert not called & banned


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_table(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
