"""Distributed engine: bit-identity to batch, lifecycle, registry, serving.

The determinism contract under test everywhere: a walker's randomness is
its per-query ``SeedSequence((seed, query_id))`` substream, carried with
the walker as it forwards between shards — so the shard count, the
partition, and the routing interleave are invisible in the results.
``dist`` must be *bit-identical* to ``batch``: same paths, same
termination counters, same proposal/read totals, for every algorithm,
any shard count, either sampler mode, and across an epoch swap.
"""

import functools
import os

import numpy as np
import pytest
from stall_helpers import RETRY_HEAVY, NeverAccepting

from repro.bench.workloads import make_spec
from repro.cli import ALGORITHMS
from repro.dist import DistWalkEngine
from repro.engines import prepare_engine, run_software_walks
from repro.errors import GraphError, WalkConfigError, WorkerError
from repro.graph import load_dataset
from repro.graph.datasets import assign_metapath_schema
from repro.walks.engine import STAT_FIELDS
from repro.walks import (
    DeepWalkSpec,
    EngineStats,
    Node2VecSpec,
    URWSpec,
    make_queries,
    run_walks_batch,
)

NUM_QUERIES = 200
WALK_LENGTH = 10
SEED = 17


@functools.lru_cache(maxsize=None)
def _graph():
    """Weighted + metapath-typed so one graph serves every algorithm."""
    graph = load_dataset("WG", scale=0.08, seed=1, weighted=True)
    return assign_metapath_schema(graph, num_types=3, seed=1)


@functools.lru_cache(maxsize=None)
def _queries():
    return tuple(make_queries(_graph(), NUM_QUERIES, seed=5))


def _spec(algorithm):
    spec = make_spec(algorithm)
    spec.max_length = WALK_LENGTH
    return spec


def _assert_identical(expected, expected_stats, actual, actual_stats, label=""):
    assert expected.num_queries == actual.num_queries
    for a, b in zip(expected.paths, actual.paths):
        assert np.array_equal(a, b), label
    for name in STAT_FIELDS + ("total_hops",):
        assert getattr(expected_stats, name) == getattr(actual_stats, name), (
            f"{label}: EngineStats.{name} diverged"
        )


class TestBitIdenticalToBatch:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_every_algorithm_every_shard_count(self, algorithm, shards):
        batch_stats = EngineStats()
        baseline = run_walks_batch(
            _graph(), _spec(algorithm), list(_queries()), seed=SEED,
            stats=batch_stats,
        )
        dist_stats = EngineStats()
        result, _ = run_software_walks(
            "dist", _graph(), _spec(algorithm), list(_queries()), seed=SEED,
            stats=dist_stats, shards=shards,
        )
        _assert_identical(baseline, batch_stats, result, dist_stats,
                          label=f"{algorithm} @ {shards} shards")

    def test_three_shards_match_batch(self):
        batch_stats = EngineStats()
        baseline, _ = run_software_walks(
            "batch", _graph(), _spec("Node2Vec"), list(_queries()),
            seed=SEED, stats=batch_stats,
        )
        dist_stats = EngineStats()
        result, _ = run_software_walks(
            "dist", _graph(), _spec("Node2Vec"), list(_queries()),
            seed=SEED, stats=dist_stats, shards=3,
        )
        _assert_identical(baseline, batch_stats, result, dist_stats, label="3 shards")

    def test_identical_across_epoch_swap(self):
        """Repartitioning onto a mutated graph keeps both epochs exact."""
        from repro.dynamic import DynamicGraph

        # Untyped: dynamic graphs reject MetaPath schemas.
        base = load_dataset("WG", scale=0.08, seed=1, weighted=True)
        dynamic = DynamicGraph(base)
        snap0 = dynamic.snapshot()
        rng = np.random.default_rng(9)
        edges = [
            (int(a), int(b))
            for a, b in rng.integers(0, base.num_vertices, size=(40, 2))
            if a != b
        ]
        dynamic.add_edges(edges, weights=rng.uniform(0.5, 2.0, len(edges)))
        snap1 = dynamic.snapshot()

        spec = DeepWalkSpec(max_length=WALK_LENGTH)
        queries = list(_queries())
        with prepare_engine("dist", snap0.graph, spec, shards=2) as engine:
            before = engine.run(queries, seed=SEED)
            oracle0 = run_walks_batch(snap0.graph, spec, queries, seed=SEED)
            for a, b in zip(oracle0.paths, before.paths):
                assert np.array_equal(a, b)
            pids_before = engine.worker_pids
            engine.swap_snapshot(snap1)
            # The shard workers survive the swap: same processes.
            assert engine.worker_pids == pids_before
            after = engine.run(queries, seed=SEED)
            oracle1 = run_walks_batch(snap1.graph, spec, queries, seed=SEED)
            for a, b in zip(oracle1.paths, after.paths):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("p,q", RETRY_HEAVY)
    def test_retry_heavy_node2vec_at_two_and_three_shards(self, p, q):
        """A stalled walker is behind the superstep count: its hops are
        logged under its own hop count, wherever it is forwarded."""
        spec = Node2VecSpec(p=p, q=q, max_length=WALK_LENGTH)
        batch_stats = EngineStats()
        baseline = run_walks_batch(_graph(), spec, list(_queries()), seed=SEED,
                                   stats=batch_stats)
        assert batch_stats.sampling_proposals > batch_stats.total_hops
        for shards in (2, 3):
            dist_stats = EngineStats()
            result, _ = run_software_walks("dist", _graph(), spec, list(_queries()),
                                           seed=SEED, stats=dist_stats, shards=shards)
            _assert_identical(baseline, batch_stats, result, dist_stats,
                              label=f"p={p} q={q} shards={shards}")

    def test_routing_telemetry_reported(self):
        with DistWalkEngine(_graph(), URWSpec(max_length=8), shards=2) as engine:
            engine.run(list(_queries())[:50], seed=SEED)
            stats = engine.last_run_stats
        assert stats["steps"] >= 1
        assert 0.0 <= stats["forward_rate"] <= 1.0
        assert len(stats["per_shard_processed"]) == 2
        assert sum(stats["per_shard_processed"]) > 0


class TestLifecycle:
    def test_invalid_shards_rejected(self):
        with pytest.raises(WalkConfigError):
            DistWalkEngine(_graph(), URWSpec(max_length=5), shards=0)

    def test_zero_queries(self):
        with DistWalkEngine(_graph(), URWSpec(max_length=5), shards=2) as engine:
            assert engine.run([]).num_queries == 0

    def test_out_of_range_start_vertex(self):
        from repro.walks import Query

        with DistWalkEngine(_graph(), URWSpec(max_length=5), shards=2) as engine:
            with pytest.raises(GraphError):
                engine.run([Query(0, _graph().num_vertices + 7)])

    def test_closed_engine_rejects_runs(self):
        engine = DistWalkEngine(_graph(), URWSpec(max_length=5), shards=2)
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(WalkConfigError):
            engine.run(list(_queries())[:4], seed=SEED)
        with pytest.raises(WalkConfigError):
            engine.swap_snapshot(_graph())

    def test_walkers_stalled_past_the_safety_valve_close_the_engine(self, monkeypatch):
        """A sampler that never accepts: the shard whose walker reaches
        the stall bound fails the run with the sampler's error, and the
        engine closes as on any worker fault — no peer is left waiting.
        (A lower bound, inherited by the forked workers, keeps the
        10,000 supersteps of the real one out of the suite's time.)"""
        monkeypatch.setattr("repro.walks.batch.MAX_STALLS", 500)
        engine = DistWalkEngine(_graph(), NeverAccepting(p=4.0, q=0.25, max_length=8),
                                shards=2)
        pids = engine.worker_pids
        with pytest.raises(WorkerError, match=r"after \d+ rounds \(p=4\.0, q=0\.25\)"):
            engine.run(list(_queries())[:6], seed=SEED)
        with pytest.raises(WalkConfigError, match="engine is closed"):
            engine.run(list(_queries())[:6], seed=SEED)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestRegistry:
    def test_prepared_engine_amortizes_workers(self):
        spec = URWSpec(max_length=8)
        queries = list(_queries())[:60]
        baseline = run_walks_batch(_graph(), spec, queries, seed=SEED)
        with prepare_engine("dist", _graph(), spec, shards=2) as engine:
            for _ in range(2):  # same workers serve repeated runs
                result = engine.run(queries, seed=SEED)
                for a, b in zip(baseline.paths, result.paths):
                    assert np.array_equal(a, b)


class TestServing:
    def test_service_serves_through_dist(self):
        import asyncio

        from repro.serve import WalkService, replay_paths

        graph = _graph()
        spec = URWSpec(max_length=6)

        requests = {100 + i: i * 7 % graph.num_vertices for i in range(5)}

        async def scenario():
            async with WalkService(graph, spec, engine="dist", seed=11,
                                   shards=2) as service:
                return {
                    query_id: await service.submit(start, query_id=query_id)
                    for query_id, start in requests.items()
                }

        results = asyncio.run(scenario())
        # Every served slice replays bit-identically offline: the serving
        # engine being distributed is invisible in the results.
        oracle = replay_paths(graph, spec, requests, seed=11)
        for query_id, walk in results.items():
            assert np.array_equal(walk.paths[0], oracle[query_id])
