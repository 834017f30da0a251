"""Integration tests for the full RidgeWalker machine (small configs)."""

import numpy as np
import pytest

from repro.core import RidgeWalker, RidgeWalkerConfig, run_ridgewalker
from repro.errors import GraphError, WalkConfigError
from repro.graph import cycle_graph, load_dataset, path_graph
from repro.graph.datasets import assign_metapath_schema
from repro.memory.spec import MemorySpec
from repro.walks import (
    DeepWalkSpec,
    MetaPathSpec,
    Node2VecSpec,
    PPRSpec,
    Query,
    URWSpec,
    make_queries,
)

#: Small, fast memory spec for unit-level integration tests.
FAST_MEM = MemorySpec(
    "fast-test",
    num_channels=8,
    random_tx_rate_mhz=320.0,
    sequential_gbs=80.0,
    round_trip_cycles=12,
    max_outstanding=16,
)


def small_config(**kw):
    defaults = dict(num_pipelines=2, memory=FAST_MEM, recirculation_depth=32)
    defaults.update(kw)
    return RidgeWalkerConfig(**defaults)


class TestExactPaths:
    def test_cycle_graph_paths_deterministic(self):
        g = cycle_graph(10)
        run = run_ridgewalker(
            g, URWSpec(max_length=7), [Query(0, 3)], config=small_config(), seed=1
        )
        assert run.results.path_of(0).tolist() == [3, 4, 5, 6, 7, 8, 9, 0]

    def test_walk_terminates_at_dangling(self):
        g = path_graph(5)
        run = run_ridgewalker(
            g, URWSpec(max_length=80), [Query(0, 2)], config=small_config(), seed=1
        )
        assert run.results.path_of(0).tolist() == [2, 3, 4]

    def test_every_hop_is_an_edge(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        qs = make_queries(g, 24, seed=2)
        run = run_ridgewalker(g, URWSpec(max_length=20), qs, config=small_config(), seed=3)
        for path in run.results.paths:
            for a, b in zip(path[:-1], path[1:]):
                assert g.has_edge(int(a), int(b))

    def test_max_length_respected(self):
        g = cycle_graph(5)
        qs = [Query(i, i % 5) for i in range(8)]
        run = run_ridgewalker(g, URWSpec(max_length=12), qs, config=small_config(), seed=1)
        assert all(length == 12 for length in run.results.lengths())

    def test_reproducible_across_runs(self):
        g = load_dataset("CP", scale=0.1, seed=1)
        qs = make_queries(g, 16, seed=4)
        a = run_ridgewalker(g, URWSpec(max_length=15), qs, config=small_config(), seed=7)
        b = run_ridgewalker(g, URWSpec(max_length=15), qs, config=small_config(), seed=7)
        for pa, pb in zip(a.results.paths, b.results.paths):
            assert np.array_equal(pa, pb)
        assert a.metrics.cycles == b.metrics.cycles

    def test_different_seeds_differ(self):
        g = load_dataset("CP", scale=0.1, seed=1)
        qs = make_queries(g, 16, seed=4)
        a = run_ridgewalker(g, URWSpec(max_length=15), qs, config=small_config(), seed=7)
        b = run_ridgewalker(g, URWSpec(max_length=15), qs, config=small_config(), seed=8)
        assert any(
            not np.array_equal(pa, pb) for pa, pb in zip(a.results.paths, b.results.paths)
        )


class TestAllAlgorithms:
    def test_ppr_walks_terminate_early(self):
        g = cycle_graph(100)
        qs = [Query(i, 0) for i in range(64)]
        run = run_ridgewalker(
            g, PPRSpec(alpha=0.3, max_length=80), qs, config=small_config(), seed=2
        )
        lengths = run.results.lengths()
        assert lengths.mean() < 15  # geometric with mean ~3.3
        assert lengths.min() >= 1

    def test_deepwalk_on_weighted_graph(self):
        g = load_dataset("WG", scale=0.1, seed=1, weighted=True)
        qs = make_queries(g, 16, seed=3)
        run = run_ridgewalker(g, DeepWalkSpec(max_length=10), qs, config=small_config(), seed=4)
        assert run.results.total_steps > 0

    def test_node2vec_rejection(self):
        g = load_dataset("AS", scale=0.1, seed=1)
        qs = make_queries(g, 12, seed=5)
        run = run_ridgewalker(
            g, Node2VecSpec(max_length=10, strategy="rejection"),
            qs, config=small_config(), seed=6,
        )
        assert run.results.total_steps > 0

    def test_node2vec_never_backtracks_with_huge_p(self):
        from repro.graph import from_edges
        g = from_edges(
            [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)], num_vertices=3
        )
        qs = [Query(i, 0) for i in range(12)]
        run = run_ridgewalker(
            g, Node2VecSpec(p=1e9, q=1.0, max_length=30), qs, config=small_config(), seed=7
        )
        for path in run.results.paths:
            for i in range(2, path.size):
                assert path[i] != path[i - 2]

    def test_metapath_follows_pattern_and_terminates_early(self):
        g = load_dataset("WG", scale=0.1, seed=1, weighted=True)
        g = assign_metapath_schema(g, num_types=3, seed=8)
        pattern = [0, 1]
        qs = make_queries(g, 16, seed=9)
        run = run_ridgewalker(
            g, MetaPathSpec(pattern=pattern, max_length=12), qs, config=small_config(), seed=10
        )
        for path in run.results.paths:
            for hop, dst in enumerate(path[1:]):
                assert int(g.vertex_types[int(dst)]) == pattern[hop % 2]


class TestModesAndMetrics:
    def test_static_mode_completes(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        qs = make_queries(g, 32, seed=2)
        cfg = small_config(dynamic_scheduling=False)
        run = run_ridgewalker(g, URWSpec(max_length=10), qs, config=cfg, seed=3)
        assert run.results.num_queries == 32

    def test_bulk_synchronous_produces_ghost_laps(self):
        g = load_dataset("WG", scale=0.2, seed=1)  # directed: early deaths
        qs = make_queries(g, 32, seed=2)
        cfg = small_config(dynamic_scheduling=False, bulk_synchronous=True)
        run = run_ridgewalker(g, URWSpec(max_length=30), qs, config=cfg, seed=3)
        assert run.metrics.extra["ghost_laps"] > 0
        # paths are unaffected by ghosts
        assert run.results.num_queries == 32

    def test_dynamic_mode_has_no_ghosts(self):
        g = load_dataset("WG", scale=0.2, seed=1)
        qs = make_queries(g, 32, seed=2)
        run = run_ridgewalker(g, URWSpec(max_length=30), qs, config=small_config(), seed=3)
        assert run.metrics.extra["ghost_laps"] == 0

    def test_sync_mode_slower_than_async(self):
        g = load_dataset("AS", scale=0.1, seed=1)
        qs = make_queries(g, 48, seed=2)
        fast = run_ridgewalker(
            g, URWSpec(max_length=20), qs, config=small_config(), seed=3
        )
        slow = run_ridgewalker(
            g, URWSpec(max_length=20), qs, config=small_config(async_memory=False), seed=3
        )
        assert slow.metrics.cycles > fast.metrics.cycles

    def test_metrics_accounting(self):
        g = cycle_graph(20)
        qs = [Query(i, i % 20) for i in range(16)]
        run = run_ridgewalker(g, URWSpec(max_length=10), qs, config=small_config(), seed=1)
        m = run.metrics
        assert m.total_steps == 160
        # URW: one row + one column transaction per step
        assert m.random_transactions == pytest.approx(2 * 160, abs=5)
        assert m.msteps_per_second() > 0
        assert 0 <= m.bubble_ratio() <= 1

    def test_flat_scheduler_equivalent_results(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        qs = make_queries(g, 24, seed=2)
        flat = run_ridgewalker(
            g, URWSpec(max_length=12), qs, config=small_config(scheduler_detail="flat"), seed=5
        )
        assert flat.results.num_queries == 24
        for path in flat.results.paths:
            for a, b in zip(path[:-1], path[1:]):
                assert g.has_edge(int(a), int(b))

    def test_empty_queries_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(WalkConfigError):
            RidgeWalker(g, URWSpec(), small_config()).run([])

    def test_out_of_range_start_rejected_before_the_run(self):
        walker = RidgeWalker(cycle_graph(4), URWSpec(), small_config())
        with pytest.raises(GraphError, match="out of range"):
            walker.run([Query(0, 1), Query(1, 4)])
        with pytest.raises(GraphError, match="out of range"):
            walker.run_streaming([Query(0, 4)], measure_cycles=10)


class TestStreaming:
    def test_streaming_metrics(self):
        g = load_dataset("AS", scale=0.1, seed=1)
        qs = make_queries(g, 64, seed=2)
        rw = RidgeWalker(g, URWSpec(max_length=40), small_config(), seed=3)
        metrics = rw.run_streaming(qs, warmup_cycles=500, measure_cycles=2000)
        assert metrics.cycles == 2000
        assert metrics.total_steps > 0
        assert metrics.msteps_per_second() > 0

    def test_streaming_excludes_warmup(self):
        g = load_dataset("AS", scale=0.1, seed=1)
        qs = make_queries(g, 64, seed=2)
        rw = RidgeWalker(g, URWSpec(max_length=40), small_config(), seed=3)
        short = rw.run_streaming(qs, warmup_cycles=0, measure_cycles=400)
        rw2 = RidgeWalker(g, URWSpec(max_length=40), small_config(), seed=3)
        warmed = rw2.run_streaming(qs, warmup_cycles=2000, measure_cycles=400)
        # warmed-up machine is at steady state: strictly more work done
        assert warmed.total_steps > short.total_steps

    def test_streaming_validation(self):
        g = cycle_graph(4)
        rw = RidgeWalker(g, URWSpec(), small_config())
        with pytest.raises(WalkConfigError):
            rw.run_streaming([], measure_cycles=100)
        with pytest.raises(WalkConfigError):
            rw.run_streaming([Query(0, 0)], measure_cycles=0)
