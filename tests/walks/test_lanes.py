"""Lane invariance of a closed batch run.

A closed run splits its rows into contiguous blocks, one per lane
(:func:`repro.walks.batch.lane_count`): each lane walks its block
through the one superstep loop on its own thread, and once every hop
count is in, fills its own slice of the one path buffer.  Every walker
draws only from its own stream, so the paths, the offsets and every
``EngineStats`` field must not depend on the lane count.

Lane counts are forced by patching the block-size constant — and the
usable CPU count, so a one-CPU host forces them too — never through an
option.  ``scripts/check.sh`` also runs this file under ``taskset -c 0``,
where the unpatched rule must give one lane.
"""

import dataclasses
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from stall_helpers import RETRY_HEAVY

from repro.bench.workloads import make_spec
from repro.cli import ALGORITHMS
from repro.graph import rmat
from repro.graph.datasets import assign_metapath_schema, thunderrw_weights
from repro.obs.exporters import chrome_trace
from repro.obs.trace import DEFAULT_CAPACITY, configure_tracer, tracing
from repro.parallel import ParallelWalkEngine
from repro.walks import EngineStats, Node2VecSpec, PPRSpec, Query, make_queries
from repro.walks import batch
from repro.walks.batch import BatchEngine, lane_count
from repro.walks.engine import prepared_kernel, usable_cpus

SEED = 13
LENGTH = 20
#: Not a multiple of 2 or 3: blocks of unequal size.
QUERIES = 401
LANES = (1, 2, 3)


@pytest.fixture(scope="module")
def graph():
    """Weighted, typed RMAT-10; directed, so it has dangling vertices."""
    graph = rmat(10, edge_factor=8, seed=7)
    graph = graph.with_weights(thunderrw_weights(graph, 7))
    return assign_metapath_schema(graph, num_types=3, seed=7)


@pytest.fixture(scope="module")
def queries(graph):
    # Dangling starts included: a lane may lose walkers before its first hop.
    return make_queries(graph, QUERIES, seed=5, require_outgoing=False)


def force_lanes(monkeypatch, lanes: int, walkers: int) -> None:
    """Make a closed run of ``walkers`` fan out to exactly ``lanes``."""
    monkeypatch.setattr(batch, "usable_cpus", lambda: 8)
    minimum = walkers // lanes if lanes > 1 else walkers + 1
    monkeypatch.setattr(batch, "_MIN_BLOCK_WALKERS", minimum)
    assert lane_count(walkers) == lanes


def flat_run(engine: BatchEngine, queries) -> tuple:
    """``(flat, offsets, every EngineStats field)`` of one closed run."""
    stats = EngineStats()
    results = engine.run(queries, seed=SEED, stats=stats)
    flat, offsets = results._buffer()
    return flat, offsets, dataclasses.asdict(stats)


def runs_by_lanes(monkeypatch, engine, queries, lanes=LANES) -> dict:
    runs = {}
    for count in lanes:
        force_lanes(monkeypatch, count, len(queries))
        runs[count] = flat_run(engine, queries)
    return runs


def assert_lane_invariant(runs: dict) -> None:
    (flat, offsets, stats), *rest = runs.values()
    for lanes, (other_flat, other_offsets, other_stats) in zip(list(runs)[1:], rest):
        assert np.array_equal(flat, other_flat), f"paths moved at {lanes} lanes"
        assert np.array_equal(offsets, other_offsets), f"offsets moved at {lanes} lanes"
        assert stats == other_stats, f"EngineStats moved at {lanes} lanes"


def record_fills(monkeypatch) -> list:
    """Keep ``(rows, step_log)`` of every block a run fills, in the order
    the lanes fill them."""
    fills, lock = [], threading.Lock()
    fill = batch.paths_from_step_log

    def recording_fill(flat, hops, step_log):
        with lock:
            fills.append((hops.size, step_log))
        fill(flat, hops, step_log)

    monkeypatch.setattr(batch, "paths_from_step_log", recording_fill)
    return fills


def test_lane_rule():
    """One lane per usable CPU from two full blocks up; one below."""
    minimum = batch._MIN_BLOCK_WALKERS
    cpus = usable_cpus()
    assert lane_count(0) == 1
    assert lane_count(2 * minimum - 1) == 1
    assert lane_count(2 * minimum) == min(cpus, 2)
    assert lane_count(1 << 30) == cpus


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity API")
def test_one_usable_cpu_is_one_lane():
    """The affinity path: pinned to one CPU, no batch size fans out."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        assert usable_cpus() == 1
        assert lane_count(1 << 30) == 1
    finally:
        os.sched_setaffinity(0, before)


@pytest.mark.parametrize("sampler", ("default", "auto"))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_paths_and_stats_do_not_depend_on_lanes(monkeypatch, graph, queries,
                                                algorithm, sampler):
    spec = make_spec(algorithm)
    spec.max_length = LENGTH
    engine = BatchEngine(graph, spec, sampler)
    assert_lane_invariant(runs_by_lanes(monkeypatch, engine, queries))


@pytest.mark.parametrize("p,q", RETRY_HEAVY)
def test_stalled_rows_fill_their_own_slice(monkeypatch, graph, p, q):
    """Retry-heavy Node2Vec logs ``(vertices, stalled)`` supersteps in
    every block, and each lane writes them into its slice of the buffer."""
    spec = Node2VecSpec(p=p, q=q, max_length=LENGTH)
    engine = BatchEngine(graph, spec)
    queries = make_queries(graph, QUERIES, seed=2)
    fills = record_fills(monkeypatch)
    assert_lane_invariant(runs_by_lanes(monkeypatch, engine, queries))
    three_lanes = fills[-3:]
    assert sum(rows for rows, _ in three_lanes) == QUERIES
    for _, step_log in three_lanes:
        assert any(isinstance(entry, tuple) for entry in step_log)


def test_teleports_in_every_lane(monkeypatch, graph):
    spec = PPRSpec(alpha=0.5, max_length=LENGTH)
    engine = BatchEngine(graph, spec)
    queries = make_queries(graph, QUERIES, seed=3)
    runs = runs_by_lanes(monkeypatch, engine, queries)
    assert_lane_invariant(runs)
    _, offsets, stats = runs[3]
    assert stats["probabilistic_terminations"] > QUERIES // 2
    # Every block ends walks by teleport, not only the first.
    hops = np.diff(offsets) - 1
    for block in np.array_split(hops, 3):
        assert (block < LENGTH).sum() > block.size // 2


def test_a_lane_whose_walkers_all_start_dangling(monkeypatch, graph):
    """The middle of three blocks starts every walker on a dangling
    vertex: its lane's one superstep ends them all and logs no hop."""
    dangling = np.flatnonzero(graph.degrees() == 0)
    walking = np.flatnonzero(graph.degrees() > 0)
    block = 100
    assert dangling.size >= block
    starts = np.concatenate([walking[:block], dangling[:block], walking[-block:]])
    queries = [Query(k, int(v)) for k, v in enumerate(starts)]
    spec = make_spec("DeepWalk")
    spec.max_length = LENGTH
    engine = BatchEngine(graph, spec)
    fills = record_fills(monkeypatch)
    runs = runs_by_lanes(monkeypatch, engine, queries)
    assert_lane_invariant(runs)
    logged = sorted(sum(entry.size for entry in step_log) for _, step_log in fills[-3:])
    assert logged[0] == 0 < logged[1]
    _, offsets, stats = runs[3]
    assert np.all(np.diff(offsets)[block : 2 * block] == 1)
    assert stats["dangling_terminations"] >= block


def test_lanes_hold_under_constant_thread_switching(monkeypatch, graph, queries):
    """More lanes than CPUs, and the interpreter switching threads every
    microsecond: a lane writing outside its own slice of ``hops`` or of
    the path buffer would show as a moved path."""
    spec = make_spec("Node2Vec")
    spec.max_length = LENGTH
    engine = BatchEngine(graph, spec)
    expected = runs_by_lanes(monkeypatch, engine, queries, lanes=(1,))[1]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            force_lanes(monkeypatch, 4, QUERIES)
            assert_lane_invariant({1: expected, 4: flat_run(engine, queries)})
    finally:
        sys.setswitchinterval(interval)


class RaisesOffTheCallingThread:
    """A kernel that fails in every lane but the caller's."""

    def __init__(self, kernel, caller):
        self._kernel = kernel
        self._caller = caller

    def sample(self, *args):
        if threading.get_ident() != self._caller:
            raise RuntimeError("lane failed")
        return self._kernel.sample(*args)


def test_a_failing_lane_raises_from_the_run(monkeypatch, graph, queries):
    spec = make_spec("DeepWalk")
    _, kernel = prepared_kernel(spec, "default", graph)
    engine = BatchEngine(graph, spec, kernel=RaisesOffTheCallingThread(
        kernel, threading.get_ident()))
    force_lanes(monkeypatch, 2, QUERIES)
    with pytest.raises(RuntimeError, match="lane failed"):
        engine.run(queries, seed=SEED)
    # The engine is not poisoned: a one-lane run still works.
    force_lanes(monkeypatch, 1, QUERIES)
    assert engine.run(queries, seed=SEED).num_queries == QUERIES


@pytest.fixture
def fresh_tracer():
    configure_tracer(DEFAULT_CAPACITY)
    yield
    configure_tracer(DEFAULT_CAPACITY)


def test_traced_lanes_run_on_their_own_threads(monkeypatch, graph, queries, fresh_tracer):
    spec = make_spec("DeepWalk")
    spec.max_length = LENGTH
    engine = BatchEngine(graph, spec)
    force_lanes(monkeypatch, 2, QUERIES)
    with tracing() as tracer:
        engine.run(queries, seed=SEED)
    events = tracer.events()
    lanes = {event.args["lane"]: event for event in events if event.name == "batch.lane"}
    assert sorted(lanes) == [0, 1]
    assert lanes[0].tid == threading.get_ident() != lanes[1].tid
    assert sum(lane.args["walkers"] for lane in lanes.values()) == QUERIES
    for event in events:
        if event.name == "batch.superstep":
            assert event.tid == lanes[event.args["lane"]].tid
    supersteps = [e for e in events if e.name == "batch.superstep"]
    for lane, span in lanes.items():
        assert span.args["supersteps"] == sum(e.args["lane"] == lane for e in supersteps)

    exported = [record for record in chrome_trace(events)["traceEvents"]
                if record["name"] == "batch.lane"]
    assert {record["tid"] for record in exported} == {lanes[0].tid, lanes[1].tid}
    assert sorted(record["args"]["lane"] for record in exported) == [0, 1]


def _fan_out_in_child(engine, queries, expected_flat) -> None:
    """Forked child: a fanned-out run must finish and match the parent's."""
    assert batch._pool is None, "the child inherited the parent's lane pool"
    flat, _ = engine.run(queries, seed=SEED)._buffer()
    os._exit(0 if np.array_equal(flat, expected_flat) else 3)


def test_a_forked_child_starts_its_own_lane_pool(monkeypatch, graph, queries):
    """The parent's pool thread does not survive a fork; the child must
    not queue lanes on it (they would never run)."""
    spec = make_spec("DeepWalk")
    spec.max_length = LENGTH
    engine = BatchEngine(graph, spec)
    force_lanes(monkeypatch, 2, QUERIES)
    expected, _, _ = flat_run(engine, queries)
    assert batch._pool is not None
    child = multiprocessing.get_context("fork").Process(
        target=_fan_out_in_child, args=(engine, queries, expected))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("a forked child's fanned-out run hung")
    assert child.exitcode == 0


def test_pool_workers_run_one_lane(monkeypatch):
    """After the parent fanned out, a forked 2-worker parallel engine on
    shards of at least two blocks finishes, matches batch bit for bit,
    and never fans out inside a worker."""
    graph = rmat(10, edge_factor=8, seed=3)
    spec = make_spec("DeepWalk")
    spec.max_length = LENGTH
    queries = make_queries(graph, 2000, seed=4)
    monkeypatch.setattr(batch, "usable_cpus", lambda: 2)
    monkeypatch.setattr(batch, "_MIN_BLOCK_WALKERS", 32)
    expected, _, expected_stats = flat_run(BatchEngine(graph, spec), queries)
    assert batch._pool is not None

    parent = os.getpid()
    lane_pool = batch._lane_pool

    def parent_only_pool():
        if os.getpid() != parent:
            raise AssertionError("a pool worker fanned out")
        return lane_pool()

    monkeypatch.setattr(batch, "_lane_pool", parent_only_pool)
    with ParallelWalkEngine(graph, spec, workers=2) as engine:
        shards = len(queries) // (2 * 4)  # SHARDS_PER_WORKER
        assert lane_count(shards) >= 2
        flat, offsets, stats = flat_run(engine, queries)
    assert np.array_equal(flat, expected)
    assert stats == expected_stats
