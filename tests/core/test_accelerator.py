"""Integration tests for the full RidgeWalker machine (small configs)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.core.accelerator import _Machine
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
        run = RidgeWalker(g, URWSpec(max_length=7), small_config(), seed=1).run([Query(0, 3)])
        assert run.results.path_of(0).tolist() == [3, 4, 5, 6, 7, 8, 9, 0]

    def test_walk_terminates_at_dangling(self):
        g = path_graph(5)
        run = RidgeWalker(g, URWSpec(max_length=80), small_config(), seed=1).run([Query(0, 2)])
        assert run.results.path_of(0).tolist() == [2, 3, 4]

    def test_every_hop_is_an_edge(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        qs = make_queries(g, 24, seed=2)
        run = RidgeWalker(g, URWSpec(max_length=20), small_config(), seed=3).run(qs)
        for path in run.results.paths:
            for a, b in zip(path[:-1], path[1:]):
                assert g.has_edge(int(a), int(b))

    def test_max_length_respected(self):
        g = cycle_graph(5)
        qs = [Query(i, i % 5) for i in range(8)]
        run = RidgeWalker(g, URWSpec(max_length=12), small_config(), seed=1).run(qs)
        assert all(length == 12 for length in run.results.lengths())

    def test_reproducible_across_runs(self):
        g = load_dataset("CP", scale=0.1, seed=1)
        qs = make_queries(g, 16, seed=4)
        a = RidgeWalker(g, URWSpec(max_length=15), small_config(), seed=7).run(qs)
        b = RidgeWalker(g, URWSpec(max_length=15), small_config(), seed=7).run(qs)
        for pa, pb in zip(a.results.paths, b.results.paths):
            assert np.array_equal(pa, pb)
        assert a.metrics.cycles == b.metrics.cycles

    def test_different_seeds_differ(self):
        g = load_dataset("CP", scale=0.1, seed=1)
        qs = make_queries(g, 16, seed=4)
        a = RidgeWalker(g, URWSpec(max_length=15), small_config(), seed=7).run(qs)
        b = RidgeWalker(g, URWSpec(max_length=15), small_config(), seed=8).run(qs)
        assert any(
            not np.array_equal(pa, pb) for pa, pb in zip(a.results.paths, b.results.paths)
        )


class TestAllAlgorithms:
    def test_ppr_walks_terminate_early(self):
        g = cycle_graph(100)
        qs = [Query(i, 0) for i in range(64)]
        run = RidgeWalker(g, PPRSpec(alpha=0.3, max_length=80), small_config(), seed=2).run(qs)
        lengths = run.results.lengths()
        assert lengths.mean() < 15  # geometric with mean ~3.3
        assert lengths.min() >= 1

    def test_deepwalk_on_weighted_graph(self):
        g = load_dataset("WG", scale=0.1, seed=1, weighted=True)
        qs = make_queries(g, 16, seed=3)
        run = RidgeWalker(g, DeepWalkSpec(max_length=10), small_config(), seed=4).run(qs)
        assert run.results.total_steps > 0

    def test_node2vec_rejection(self):
        g = load_dataset("AS", scale=0.1, seed=1)
        qs = make_queries(g, 12, seed=5)
        spec = Node2VecSpec(max_length=10, strategy="rejection")
        run = RidgeWalker(g, spec, small_config(), seed=6).run(qs)
        assert run.results.total_steps > 0

    def test_node2vec_never_backtracks_with_huge_p(self):
        from repro.graph import from_edges
        g = from_edges(
            [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)], num_vertices=3
        )
        qs = [Query(i, 0) for i in range(12)]
        spec = Node2VecSpec(p=1e9, q=1.0, max_length=30)
        run = RidgeWalker(g, spec, small_config(), seed=7).run(qs)
        for path in run.results.paths:
            for i in range(2, path.size):
                assert path[i] != path[i - 2]

    def test_metapath_follows_pattern_and_terminates_early(self):
        g = load_dataset("WG", scale=0.1, seed=1, weighted=True)
        g = assign_metapath_schema(g, num_types=3, seed=8)
        pattern = [0, 1]
        qs = make_queries(g, 16, seed=9)
        spec = MetaPathSpec(pattern=pattern, max_length=12)
        run = RidgeWalker(g, spec, small_config(), seed=10).run(qs)
        for path in run.results.paths:
            for hop, dst in enumerate(path[1:]):
                assert int(g.vertex_types[int(dst)]) == pattern[hop % 2]


class TestModesAndMetrics:
    def test_static_mode_completes(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        qs = make_queries(g, 32, seed=2)
        cfg = small_config(dynamic_scheduling=False)
        run = RidgeWalker(g, URWSpec(max_length=10), cfg, seed=3).run(qs)
        assert run.results.num_queries == 32

    def test_bulk_synchronous_produces_ghost_laps(self):
        g = load_dataset("WG", scale=0.2, seed=1)  # directed: early deaths
        qs = make_queries(g, 32, seed=2)
        cfg = small_config(dynamic_scheduling=False, bulk_synchronous=True)
        run = RidgeWalker(g, URWSpec(max_length=30), cfg, seed=3).run(qs)
        assert run.metrics.extra["ghost_laps"] > 0
        # paths are unaffected by ghosts
        assert run.results.num_queries == 32

    def test_dynamic_mode_has_no_ghosts(self):
        g = load_dataset("WG", scale=0.2, seed=1)
        qs = make_queries(g, 32, seed=2)
        run = RidgeWalker(g, URWSpec(max_length=30), small_config(), seed=3).run(qs)
        assert run.metrics.extra["ghost_laps"] == 0

    def test_sync_mode_slower_than_async(self):
        g = load_dataset("AS", scale=0.1, seed=1)
        qs = make_queries(g, 48, seed=2)
        fast = RidgeWalker(g, URWSpec(max_length=20), small_config(), seed=3).run(qs)
        slow = RidgeWalker(
            g, URWSpec(max_length=20), small_config(async_memory=False), seed=3
        ).run(qs)
        assert slow.metrics.cycles > fast.metrics.cycles

    def test_metrics_accounting(self):
        g = cycle_graph(20)
        qs = [Query(i, i % 20) for i in range(16)]
        run = RidgeWalker(g, URWSpec(max_length=10), small_config(), seed=1).run(qs)
        m = run.metrics
        assert m.total_steps == 160
        # URW: one row + one column transaction per step
        assert m.random_transactions == pytest.approx(2 * 160, abs=5)
        assert m.msteps_per_second() > 0
        assert 0 <= m.bubble_ratio() <= 1

    def test_empty_queries_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(WalkConfigError):
            RidgeWalker(g, URWSpec(), small_config()).run([])

    def test_duplicate_query_ids_are_refused_before_a_module_is_built(self, monkeypatch):
        """The recorder keys each path by its id, so an id given twice is
        refused up front, by name, by both entry points."""
        import repro.core.accelerator as accelerator

        def no_machine(*args, **kwargs):
            raise AssertionError("a machine was built")

        monkeypatch.setattr(accelerator, "_Machine", no_machine)
        walker = RidgeWalker(cycle_graph(4), URWSpec(), small_config())
        with pytest.raises(WalkConfigError, match="query id 3 appears more than once"):
            walker.run([Query(3, 1), Query(5, 0), Query(3, 2)])
        with pytest.raises(WalkConfigError, match="query id 3 appears more than once"):
            walker.run_streaming([Query(3, 1), Query(3, 2)], measure_cycles=10)

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

    def test_run_streaming_crashes_on_ids_that_do_not_start_at_0(self):
        """Regression: fresh ids were numbered from the batch size, so
        they collided with ids above it ("query 40 started twice").  They
        now count on from the largest id."""
        g = load_dataset("AS", scale=0.1, seed=1)
        rw = RidgeWalker(g, URWSpec(max_length=8), small_config(), seed=3)
        metrics = rw.run_streaming([Query(40, 1), Query(41, 2)], warmup_cycles=500,
                                   measure_cycles=2000)
        assert metrics.total_steps > 0

    def test_streaming_validation(self):
        g = cycle_graph(4)
        rw = RidgeWalker(g, URWSpec(), small_config())
        with pytest.raises(WalkConfigError):
            rw.run_streaming([], measure_cycles=100)
        with pytest.raises(WalkConfigError):
            rw.run_streaming([Query(0, 0)], measure_cycles=0)


class TestMachineLifetime:
    @pytest.mark.parametrize("spec", [DeepWalkSpec(max_length=8), URWSpec(max_length=8),
                                      Node2VecSpec(max_length=8)],
                             ids=["alias", "uniform", "rejection"])
    def test_a_finished_machine_is_freed_by_reference_counting(self, spec):
        """No reference cycle runs through a machine: the bound draws,
        routes, hooks and tick list point down, never back at a module,
        so a finished machine (sampler tables, memory system, recorder)
        goes the moment its last reference does, with no collector pass."""
        g = load_dataset("AS", scale=0.1, seed=1)
        machine = _Machine(g, spec, small_config(), 3, make_queries(g, 16, seed=2))
        sampling = machine.pipelines[0].sampling
        hop = machine.pipelines[0].row_access._route.__self__
        refs = [weakref.ref(machine), weakref.ref(sampling), weakref.ref(hop)]
        gc.disable()
        try:
            run = machine.execute()
            assert run.results.total_steps > 0
            del machine, sampling, hop
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()
