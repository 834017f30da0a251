"""Unit tests for the baseline performance models."""

import numpy as np
import pytest

from repro.baselines import (
    FastRWModel,
    GPUModel,
    LightRWModel,
    SuModel,
    WorkloadTrace,
    rng_words_per_step,
)
from repro.errors import SimulationError
from repro.graph import cycle_graph, load_dataset, powerlaw
from repro.walks import DeepWalkSpec, Node2VecSpec, PPRSpec, Query, URWSpec, make_queries


def workload(dataset="WG", scale=0.15, weighted=False, seed=1):
    g = load_dataset(dataset, scale=scale, seed=seed, weighted=weighted)
    return g, make_queries(g, 128, seed=2)


class TestWorkloadTrace:
    def test_lengths_and_steps(self):
        g = cycle_graph(50)
        queries = [Query(i, i % 50) for i in range(20)]
        trace = WorkloadTrace(g, URWSpec(max_length=30), queries, seed=1)
        assert trace.total_steps == 600
        assert np.all(trace.lengths == 30)

    def test_alive_per_round(self):
        g = cycle_graph(50)
        queries = [Query(i, i % 50) for i in range(10)]
        trace = WorkloadTrace(g, URWSpec(max_length=5), queries, seed=1)
        assert trace.alive_per_round().tolist() == [10] * 5

    def test_alive_decays_with_ppr(self):
        g = cycle_graph(500)
        queries = [Query(i, 0) for i in range(100)]
        trace = WorkloadTrace(g, PPRSpec(alpha=0.3, max_length=80), queries, seed=1)
        alive = trace.alive_per_round()
        assert alive[0] == 100
        assert alive[-1] < alive[0]
        assert np.all(np.diff(alive) <= 0)

    def test_mean_scan_words(self):
        g, queries = workload(weighted=True)
        trace = WorkloadTrace(g, DeepWalkSpec(max_length=10), queries, seed=1)
        assert trace.mean_scan_words_per_step() >= 1.0

    def test_rng_words_per_step(self):
        assert rng_words_per_step(URWSpec()) == 1
        assert rng_words_per_step(DeepWalkSpec()) == 2
        assert rng_words_per_step(Node2VecSpec(strategy="rejection")) == 2


class TestFastRWModel:
    def test_cache_cliff(self):
        model = FastRWModel(cache_bytes=64 * 1024)
        small = powerlaw(num_vertices=500, num_edges=3000, seed=1, name="small")
        large = powerlaw(num_vertices=60_000, num_edges=240_000, seed=2, name="large")
        spec = DeepWalkSpec(max_length=20)
        hit_small = model.cache_hit_rate(small, spec, None)
        hit_large = model.cache_hit_rate(large, spec, None)
        assert hit_small == 1.0
        assert hit_large < 0.75

    def test_throughput_drops_when_cache_spills(self):
        spec = DeepWalkSpec(max_length=20)
        model = FastRWModel(cache_bytes=32 * 1024)
        g_small, q_small = workload("WG", scale=0.05)
        g_large, q_large = workload("LJ", scale=0.4)
        fast = model.run(g_small.with_weights(np.ones(g_small.num_edges) + 1e-3), spec, q_small, seed=3)
        slow = model.run(g_large.with_weights(np.ones(g_large.num_edges) + 1e-3), spec, q_large, seed=3)
        assert fast.bandwidth_utilization() > slow.bandwidth_utilization()

    def test_metrics_sane(self):
        g, queries = workload(weighted=True)
        metrics = FastRWModel().run(g, DeepWalkSpec(max_length=20), queries, seed=3)
        assert metrics.total_steps > 0
        assert metrics.msteps_per_second() > 0
        assert 0 < metrics.bandwidth_utilization() <= 1.0

    def test_empty_queries_rejected(self):
        g, _ = workload()
        with pytest.raises(SimulationError):
            FastRWModel().run(g, URWSpec(), [], seed=1)


class TestLightRWModel:
    def test_bubbles_on_directed_graph(self):
        g, queries = workload("CP", scale=0.2, weighted=True)
        metrics = LightRWModel().run(g, Node2VecSpec(strategy="reservoir", max_length=40), queries)
        assert metrics.extra["bubble_ratio_slots"] > 0.1

    def test_no_bubbles_on_fixed_length_walks(self):
        g = cycle_graph(100).with_weights(np.ones(100))
        queries = [Query(i, i % 100) for i in range(64)]
        metrics = LightRWModel().run(g, DeepWalkSpec(max_length=20), queries)
        assert metrics.extra["bubble_ratio_slots"] == 0.0

    def test_scan_cost_reduces_throughput(self):
        # Reservoir sampling scans the neighbor list, so dense graphs
        # cost more per hop than degree-1 chains.
        sparse = cycle_graph(400).with_weights(np.ones(400))  # degree 1
        queries = [Query(i, i % 400) for i in range(64)]
        dense = powerlaw(num_vertices=400, num_edges=20_000, seed=3)
        dense = dense.with_weights(np.ones(dense.num_edges) * 2.0)
        spec = Node2VecSpec(strategy="reservoir", max_length=20)
        thin = LightRWModel().run(sparse, spec, queries)
        thick = LightRWModel().run(dense, spec, make_queries(dense, 64, seed=4))
        assert thin.msteps_per_second() > thick.msteps_per_second()


class TestSuModel:
    def test_latency_bound_dominates(self):
        g, queries = workload()
        metrics = SuModel().run(g, URWSpec(max_length=40), queries)
        chase = metrics.extra["chase_bound_steps_per_cycle"]
        bandwidth = metrics.extra["bandwidth_bound_steps_per_cycle"]
        assert chase < bandwidth  # pointer chase is the limiter

    def test_pool_width_scales_throughput(self):
        g, queries = workload()
        small = SuModel(walker_pool=2).run(g, URWSpec(max_length=40), queries)
        large = SuModel(walker_pool=8).run(g, URWSpec(max_length=40), queries)
        assert large.msteps_per_second() > 1.5 * small.msteps_per_second()


class TestGPUModel:
    def test_lockstep_efficiency_uniform(self):
        model = GPUModel()
        assert model.lockstep_efficiency(np.full(64, 80)) == pytest.approx(1.0)

    def test_lockstep_efficiency_skewed(self):
        model = GPUModel()
        lengths = np.full(64, 5)
        lengths[0] = 80  # one straggler per warp half
        lengths[32] = 80
        eff = model.lockstep_efficiency(lengths)
        assert eff == pytest.approx((5 * 62 + 160) / (2 * 80 * 32), rel=1e-6)

    def test_divergence_hurts_throughput(self):
        g = cycle_graph(1000)
        queries = [Query(i, i % 1000) for i in range(256)]
        uniform = GPUModel().run(g, URWSpec(max_length=40), queries)
        diverged = GPUModel().run(g, PPRSpec(alpha=0.3, max_length=40), queries)
        assert uniform.msteps_per_second() > 2 * diverged.msteps_per_second()

    def test_cache_factor_small_vs_large(self):
        model = GPUModel(full_scale_bytes=10 * 1024 * 1024)
        g, _ = workload()
        assert model.cache_factor(g) == pytest.approx(1.0)
        big = GPUModel(full_scale_bytes=5_000_000_000)
        assert big.cache_factor(g) < 0.6

    def test_batch_regime_is_memory_bound(self):
        g = cycle_graph(2000)
        queries = [Query(i, i % 2000) for i in range(512)]
        metrics = GPUModel(regime="batch").run(g, URWSpec(max_length=40), queries)
        assert metrics.msteps_per_second() == pytest.approx(
            metrics.extra["memory_bound_msteps"], rel=0.05
        )

    def test_alias_slower_than_uniform_in_real_regime(self):
        g, queries = workload(weighted=True)
        urw = GPUModel().run(g, URWSpec(max_length=30), queries)
        deepwalk = GPUModel().run(g, DeepWalkSpec(max_length=30), queries)
        assert urw.msteps_per_second() > 2 * deepwalk.msteps_per_second()

    def test_invalid_regime_rejected(self):
        with pytest.raises(SimulationError):
            GPUModel(regime="magic")
