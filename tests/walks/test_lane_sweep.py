"""Seed sweeps of lane invisibility under adversarial workloads.

A closed batch run splits its rows into one contiguous block per lane
(:func:`repro.walks.batch.lane_count`) and walks the blocks on threads;
``test_lanes.py`` holds the split invisible at fixed shapes.  These
sweeps hammer it with 20 seeds of random workloads shaped to stress the
split: fewer walkers than lanes (one-walker blocks), more lanes than the
host has CPUs, dangling starts that end a walker before its first hop,
one heavy walk among them, sparse shuffled query ids, every algorithm's
kernel, and several threads fanning out on one engine at once.  Each
graph's engines are built once, so the sweeps exercise many splits, not
many preparations.
"""

import dataclasses
import functools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from graph_helpers import edge_pairs

from repro.bench.workloads import make_spec
from repro.cli import ALGORITHMS
from repro.graph.builders import from_edges
from repro.graph.datasets import assign_metapath_schema, thunderrw_weights
from repro.graph.generators import powerlaw
from repro.sampling import SamplerState
from repro.walks import EngineStats, Query, URWSpec, make_queries
from repro.walks import batch
from repro.walks.batch import BatchEngine, lane_count

SWEEP_SEEDS = list(range(20))
LENGTH = 15
#: Lanes a sweep run fans out to (fewer when it has fewer walkers).
MAX_LANES = 4


@functools.cache
def sweep_graph(weighted: bool):
    """Heavy-tailed graph with a guaranteed hub and many dangling sinks.

    ``powerlaw`` alone gives every vertex out-edges, so the sink tail is
    added explicitly: vertices 80..91 exist only as targets — walkers
    starting there make zero hops.  The weighted form is typed too, so
    every algorithm runs on it.
    """
    base = powerlaw(num_vertices=80, num_edges=260, seed=7, name="sweep")
    edges = [(int(a), int(b)) for a, b in edge_pairs(base)]
    edges += [(v % 80, 80 + (v % 12)) for v in range(12)]
    graph = from_edges(np.asarray(edges, dtype=np.int64), num_vertices=92,
                       directed=True, name="sweep")
    if weighted:
        graph = graph.with_weights(thunderrw_weights(graph, 8))
        graph = assign_metapath_schema(graph, num_types=3, seed=8)
    return graph


@functools.cache
def sweep_engine(weighted: bool, algorithm: str) -> BatchEngine:
    spec = make_spec(algorithm)
    spec.max_length = LENGTH
    return BatchEngine(sweep_graph(weighted), spec)


def random_queries(graph, seed, count=None):
    """1..24 queries (or ``count``) over *all* vertices — dangling starts
    included — with ids shuffled so batch position != query id."""
    rng = np.random.default_rng(seed)
    if count is None:
        count = int(rng.integers(1, 25))
    starts = rng.choice(graph.num_vertices, size=count, replace=True)
    ids = rng.permutation(count * 3)[:count]  # sparse, shuffled ids
    return [Query(int(i), int(v)) for i, v in zip(ids, starts)]


def force_lanes(monkeypatch, lanes: int, walkers: int) -> None:
    """Make a closed run of ``walkers`` fan out to exactly ``lanes``."""
    monkeypatch.setattr(batch, "usable_cpus", lambda: lanes)
    monkeypatch.setattr(batch, "_MIN_BLOCK_WALKERS", max(1, walkers // lanes))
    assert lane_count(walkers) == lanes


def flat_run(engine: BatchEngine, queries, seed) -> tuple:
    """``(flat, offsets, every EngineStats field)`` of one closed run."""
    stats = EngineStats()
    flat, offsets = engine.run(queries, seed=seed, stats=stats)._buffer()
    return flat, offsets, dataclasses.asdict(stats)


def assert_same_run(expected: tuple, actual: tuple, label: str) -> None:
    assert np.array_equal(expected[0], actual[0]), f"paths moved {label}"
    assert np.array_equal(expected[1], actual[1]), f"offsets moved {label}"
    assert expected[2] == actual[2], f"EngineStats moved {label}"


def assert_split_invisible(monkeypatch, engine, queries, seed, lanes=None) -> None:
    """One lane and ``lanes`` (default: up to :data:`MAX_LANES`) give the
    same paths, offsets and stats."""
    lanes = lanes or min(MAX_LANES, len(queries))
    force_lanes(monkeypatch, 1, len(queries))
    expected = flat_run(engine, queries, seed)
    force_lanes(monkeypatch, lanes, len(queries))
    assert_same_run(expected, flat_run(engine, queries, seed), f"at {lanes} lanes, seed={seed}")


def record_blocks(monkeypatch) -> dict:
    """Keep ``lane -> query ids`` of every block a run walks."""
    blocks, lock = {}, threading.Lock()
    walk = batch._walk_block

    def recording_walk(graph, spec, kernel, seed, tracer, lane, query_ids, starts, hops):
        with lock:
            assert lane not in blocks, f"lane {lane} walked twice"
            blocks[lane] = query_ids.copy()
        return walk(graph, spec, kernel, seed, tracer, lane, query_ids, starts, hops)

    monkeypatch.setattr(batch, "_walk_block", recording_walk)
    return blocks


# --- the split moves no vertex ------------------------------------------------


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_random_workloads_unweighted(monkeypatch, seed):
    queries = random_queries(sweep_graph(False), seed)
    assert_split_invisible(monkeypatch, sweep_engine(False, "URW"), queries, seed)


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_random_workloads_weighted(monkeypatch, algorithm, seed):
    queries = random_queries(sweep_graph(True), seed + 1000)
    assert_split_invisible(monkeypatch, sweep_engine(True, algorithm), queries, seed)


def test_one_walker_per_lane(monkeypatch):
    """As many lanes as walkers: every block holds one row."""
    engine = sweep_engine(True, "Node2Vec")
    queries = random_queries(sweep_graph(True), 7, count=8)
    force_lanes(monkeypatch, 1, len(queries))
    expected = flat_run(engine, queries, 7)
    blocks = record_blocks(monkeypatch)
    force_lanes(monkeypatch, 8, len(queries))
    assert_same_run(expected, flat_run(engine, queries, 7), "at 8 lanes")
    assert sorted(blocks) == list(range(8))
    assert all(block.size == 1 for block in blocks.values())


def test_single_heavy_query_among_dangling(monkeypatch):
    """One full-length walk plus dangling starts: every lane but one ends
    all its walkers in the first superstep."""
    graph = sweep_graph(False)
    degrees = graph.degrees()
    hub = int(np.argmax(degrees))
    dangling = np.flatnonzero(degrees == 0)
    assert dangling.size > 0, "sweep graph must contain dangling vertices"
    starts = [hub] + [int(v) for v in dangling[:12]]
    queries = [Query(i, v) for i, v in enumerate(starts)]
    assert_split_invisible(monkeypatch, sweep_engine(False, "URW"), queries, 43)


def test_extreme_imbalance_on_a_chain(monkeypatch):
    """A 3-vertex graph (0 -> 1, 1 dangles, 2 isolated) with duplicated
    starts: the blocks differ only in which walkers die where."""
    graph = from_edges(np.asarray([(0, 1)], dtype=np.int64), num_vertices=3)
    engine = BatchEngine(graph, URWSpec(max_length=5))
    queries = [Query(i, 0) for i in range(5)] + [Query(9, 2)]
    assert_split_invisible(monkeypatch, engine, queries, 3, lanes=3)


def test_query_order_does_not_move_a_path_across_lane_counts(monkeypatch):
    """A shuffled batch at another lane count: each query id keeps its path."""
    graph = sweep_graph(True)
    engine = sweep_engine(True, "DeepWalk")
    queries = random_queries(graph, 4, count=24)
    shuffled = list(queries)
    np.random.default_rng(5).shuffle(shuffled)
    force_lanes(monkeypatch, 3, len(queries))
    forward = engine.run(queries, seed=6)
    force_lanes(monkeypatch, 2, len(queries))
    permuted = engine.run(shuffled, seed=6)
    position = {q.query_id: i for i, q in enumerate(shuffled)}
    for i, query in enumerate(queries):
        assert np.array_equal(forward.path_of(i), permuted.path_of(position[query.query_id]))


# --- how the rows are split ---------------------------------------------------


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_blocks_partition_the_rows(monkeypatch, seed):
    """Whatever the CPU count and block minimum, a run walks
    ``lane_count`` blocks, one per lane, that cover its rows once, in row
    order, and differ in size by at most one row."""
    rng = np.random.default_rng(seed)
    walkers = int(rng.integers(1, 200))
    cpus = int(rng.integers(1, 9))
    minimum = int(rng.integers(1, 65))
    monkeypatch.setattr(batch, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(batch, "_MIN_BLOCK_WALKERS", minimum)
    blocks = record_blocks(monkeypatch)
    queries = random_queries(sweep_graph(False), seed, count=walkers)
    sweep_engine(False, "URW").run(queries, seed=seed)

    lanes = lane_count(walkers)
    assert sorted(blocks) == list(range(lanes))
    ordered = [blocks[lane] for lane in range(lanes)]
    assert np.concatenate(ordered).tolist() == [q.query_id for q in queries]
    sizes = [block.size for block in ordered]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


# --- what the lanes share -------------------------------------------------------


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_threads_sharing_an_engine_get_the_serial_paths(monkeypatch, algorithm):
    """Four threads each run one engine three times, every run fanned out
    over three lanes — more lanes in flight than the lane pool has
    threads: every result is the one-lane run's."""
    engine = sweep_engine(True, algorithm)
    queries = make_queries(sweep_graph(True), 60, seed=2, require_outgoing=False)
    force_lanes(monkeypatch, 1, len(queries))
    expected = flat_run(engine, queries, 3)
    force_lanes(monkeypatch, 3, len(queries))
    with ThreadPoolExecutor(4) as pool:
        runs = [pool.submit(lambda: [flat_run(engine, queries, 3) for _ in range(3)])
                for _ in range(4)]
        for outcome in runs:
            for actual in outcome.result(timeout=60):
                assert_same_run(expected, actual, "under concurrent runs")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_lanes_sample_the_one_prepared_state(monkeypatch, algorithm):
    """Every lane samples through the engine's one kernel: a fanned-out
    run prepares nothing and reads no sampler state, and the kernel still
    holds the very objects it held before."""
    engine = sweep_engine(True, algorithm)
    kernel = engine._kernel
    queries = make_queries(sweep_graph(True), 60, seed=9, require_outgoing=False)
    held = dict(vars(kernel))
    force_lanes(monkeypatch, 1, len(queries))
    expected = flat_run(engine, queries, 4)

    def never(*args):
        raise AssertionError("a lane rebuilt kernel state")

    monkeypatch.setattr(type(kernel), "prepare", never)
    monkeypatch.setattr(SamplerState, "of", never)
    force_lanes(monkeypatch, 3, len(queries))
    assert_same_run(expected, flat_run(engine, queries, 4), "at 3 lanes")
    assert vars(kernel).keys() == held.keys()
    for name, value in held.items():
        assert vars(kernel)[name] is value, name
