"""Determinism under batching: the service is scheduling, never semantics.

The acceptance bar: a request's paths are bit-identical whether it was
served alone (a frontier of 1), in frontiers of 16, in one maximal
frontier, stepped superstep by superstep or one closed run per step — and
all of those equal the offline replay through ``run_walks_batch`` at the same
``(seed, query_id)``.  Any divergence means batch composition leaked
into the randomness, which is the one bug a serving layer must never
have.
"""

import asyncio

import numpy as np
import pytest
from stall_helpers import RETRY_HEAVY

from repro.engines import PreparedEngine, prepare_engine
from repro.graph import load_dataset
from repro.serve import ServeConfig, WalkService, replay_paths, run_open_loop
from repro.walks import DeepWalkSpec, Node2VecSpec, PPRSpec
from repro.walks.batch import BatchEngine

NUM_REQUESTS = 40
SERVICE_SEED = 21

#: The frontier sizes the acceptance criterion names: singleton
#: steps, mid-size ones, and one maximal step holding every request at
#: once.
BATCH_SIZES = (1, 16, NUM_REQUESTS)

#: The frontiers the service must agree across: ``batch`` is stepped one
#: superstep at a time, ``closed`` is the same engine behind ``run``
#: alone, stepped one closed run at a time (``RunFrontier``).
ENGINES = ("batch", "closed")


class ClosedBatch(PreparedEngine):
    """The batch engine behind ``run`` alone, so it inherits
    ``PreparedEngine.open_frontier``: the shape of the benchmark suite's
    timing proxy."""

    name = "closed-batch"

    def __init__(self, graph, spec):
        self.inner = BatchEngine(graph, spec)

    def run(self, queries, seed=0, stats=None):
        return self.inner.run(queries, seed=seed, stats=stats)


@pytest.fixture(scope="module")
def workload():
    graph = load_dataset("WG", scale=0.06, seed=1, weighted=True)
    spec = DeepWalkSpec(max_length=12)
    rng = np.random.default_rng(3)
    candidates = np.nonzero(graph.degrees() > 0)[0]
    starts = rng.choice(candidates, size=NUM_REQUESTS, replace=True)
    oracle = replay_paths(
        graph, spec, {i: int(v) for i, v in enumerate(starts)}, seed=SERVICE_SEED
    )
    return graph, spec, starts, oracle


def _serve(graph, spec, starts, engine, max_batch):
    async def _drive():
        config = ServeConfig(
            max_batch=max_batch,
            max_wait_ms=50.0,
            queue_depth=4 * NUM_REQUESTS,
        )
        runner = engine if engine == "batch" else ClosedBatch(graph, spec)
        service = WalkService(graph, spec, engine=runner, seed=SERVICE_SEED, config=config)
        async with service:
            report = await run_open_loop(service, starts)
        return report, service

    return asyncio.run(_drive())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("max_batch", BATCH_SIZES)
def test_bit_identical_to_offline_replay(workload, engine, max_batch):
    """Every (batch size, engine) cell reproduces the offline oracle."""
    graph, spec, starts, oracle = workload
    report, service = _serve(graph, spec, starts, engine, max_batch)
    assert not report.dropped
    assert report.completed == NUM_REQUESTS
    for query_id, expected in oracle.items():
        assert np.array_equal(report.paths[query_id], expected), (
            f"request {query_id} diverged from offline replay under "
            f"engine={engine} max_batch={max_batch}"
        )
    # The batcher really ran the composition under test: with batch size
    # 1 every dispatch is a singleton; with a maximal batch everything
    # coalesces into few large dispatches.
    histogram = service.stats.batch_size_histogram()
    if max_batch == 1:
        assert set(histogram) == {1}
    assert max(histogram) <= max_batch


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("max_batch", BATCH_SIZES)
def test_walks_of_unequal_length_replay_bit_identically(workload, engine, max_batch):
    """PPR walks end at different hops, so on the open frontier slots
    free at different times and later requests join walkers mid-walk
    (DeepWalk at a fixed length frees them all at once); the closed
    cells run each step's requests as one closed run.  Same bits."""
    graph, _, starts, _ = workload
    spec = PPRSpec(alpha=0.2, max_length=30)
    oracle = replay_paths(
        graph, spec, {i: int(v) for i, v in enumerate(starts)}, seed=SERVICE_SEED
    )
    assert len({path.size for path in oracle.values()}) > 3
    report, service = _serve(graph, spec, starts, engine, max_batch)
    assert report.completed == NUM_REQUESTS and not report.dropped
    for query_id, expected in oracle.items():
        assert np.array_equal(report.paths[query_id], expected), (
            f"request {query_id} diverged under engine={engine} max_batch={max_batch}"
        )
    assert max(service.stats.batch_size_histogram()) <= max_batch
    # Both are stepped by the one dispatcher, never past max_batch walkers.
    assert service.stats.supersteps > 0
    assert service.stats.mean_step_occupancy() <= max_batch


def test_a_handed_in_engine_replays_at_replay_paths_defaults(workload):
    """A service over an engine it did not build replays through
    ``replay_paths`` called with no sampler: every engine runs the spec's
    own kernel, so the oracle's defaults are the engine's."""
    graph, spec, starts, _ = workload

    async def _drive():
        engine = prepare_engine("batch", graph, spec)
        async with WalkService(graph, spec, engine=engine, seed=SERVICE_SEED) as service:
            return await run_open_loop(service, starts)

    report = asyncio.run(_drive())
    oracle = replay_paths(graph, spec, report.requests, SERVICE_SEED)
    assert len(oracle) == NUM_REQUESTS
    for query_id, expected in oracle.items():
        assert np.array_equal(report.paths[query_id], expected), query_id


def test_interleaved_arrivals_do_not_change_paths(workload):
    """Paced arrivals slice the stream differently; paths must not move."""
    graph, spec, starts, oracle = workload
    report, service = _serve(graph, spec, starts, "batch", max_batch=16)
    paced_report, paced_service = None, None

    async def _paced():
        config = ServeConfig(max_batch=7, max_wait_ms=0.5, queue_depth=4 * NUM_REQUESTS)
        service = WalkService(graph, spec, engine="batch", seed=SERVICE_SEED, config=config)
        async with service:
            report = await run_open_loop(
                service, starts, rate_per_second=4000.0, arrival_seed=9
            )
        return report, service

    paced_report, paced_service = asyncio.run(_paced())
    assert not paced_report.dropped
    # Different flush pattern (different batch shapes)...
    assert (service.stats.batch_size_histogram()
            != paced_service.stats.batch_size_histogram()
            or len(service.stats.batch_sizes) != len(paced_service.stats.batch_sizes))
    # ...same bits.
    for query_id, expected in oracle.items():
        assert np.array_equal(paced_report.paths[query_id], expected)


def test_second_order_walks_survive_batching(workload):
    """Node2Vec (rejection kernel, retry rounds) is the hardest RNG
    consumer; its per-request substreams must also be composition-proof."""
    graph, _, starts, _ = workload
    spec = Node2VecSpec(max_length=10)
    oracle = replay_paths(
        graph, spec, {i: int(v) for i, v in enumerate(starts)}, seed=SERVICE_SEED
    )
    for max_batch in (1, NUM_REQUESTS):
        report, _ = _serve(graph, spec, starts, "batch", max_batch)
        for query_id, expected in oracle.items():
            assert np.array_equal(report.paths[query_id], expected)


@pytest.mark.parametrize("p,q", RETRY_HEAVY)
def test_retry_heavy_walks_replay_with_equal_counters(workload, p, q):
    """Rejected proposals retry in later supersteps, beside walkers that
    joined the frontier after them: paths and all six counters still
    equal one closed offline run (the run ``replay_paths`` makes)."""
    from repro.walks import EngineStats, run_walks_batch
    from repro.walks.base import Query
    from repro.walks.engine import STAT_FIELDS

    graph, _, starts, _ = workload
    spec = Node2VecSpec(p=p, q=q, max_length=10)
    offline = EngineStats()
    expected = run_walks_batch(graph, spec, [Query(i, int(v)) for i, v in enumerate(starts)],
                               seed=SERVICE_SEED, stats=offline)
    assert offline.sampling_proposals > offline.total_hops
    report, service = _serve(graph, spec, starts, "batch", max_batch=8)
    assert service.stats.supersteps > 0  # stepped by the open frontier
    for query_id in range(NUM_REQUESTS):
        assert np.array_equal(report.paths[query_id], expected.path_of(query_id))
    for name in STAT_FIELDS + ("total_hops",):
        assert getattr(service.engine_stats, name) == getattr(offline, name), name


def test_engine_stats_match_offline_batch(workload):
    """Service-accumulated engine counters equal one closed run's.

    ``per_query_hops`` arrives in completion order, so compare it as a
    multiset; the scalar counters must match exactly.
    """
    from repro.walks import EngineStats, run_walks_batch
    from repro.walks.base import Query

    graph, spec, starts, _ = workload
    offline = EngineStats()
    run_walks_batch(
        graph, spec,
        [Query(i, int(v)) for i, v in enumerate(starts)],
        seed=SERVICE_SEED, stats=offline,
    )
    _, service = _serve(graph, spec, starts, "batch", max_batch=16)
    served = service.engine_stats
    assert served.total_hops == offline.total_hops
    assert served.sampling_proposals == offline.sampling_proposals
    assert served.neighbor_reads == offline.neighbor_reads
    assert served.dangling_terminations == offline.dangling_terminations
    assert served.early_terminations == offline.early_terminations
    assert served.probabilistic_terminations == offline.probabilistic_terminations
    assert served.length_terminations == offline.length_terminations
    assert sorted(served.per_query_hops) == sorted(offline.per_query_hops)
