"""End-to-end consistency checks across modes, algorithms, devices."""

import numpy as np
import pytest

from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.graph import load_dataset
from repro.graph.datasets import assign_metapath_schema
from repro.memory.spec import DDR4_U250, MemorySpec
from repro.walks import (
    DeepWalkSpec,
    MetaPathSpec,
    Node2VecSpec,
    PPRSpec,
    URWSpec,
    make_queries,
)

FAST_MEM = MemorySpec(
    "fast-test",
    num_channels=8,
    random_tx_rate_mhz=320.0,
    sequential_gbs=80.0,
    round_trip_cycles=8,
    max_outstanding=16,
)


def config(**kw):
    defaults = dict(num_pipelines=4, memory=FAST_MEM, recirculation_depth=48)
    defaults.update(kw)
    return RidgeWalkerConfig(**defaults)


ALL_MODES = [
    pytest.param(dict(), id="dynamic-async"),
    pytest.param(dict(dynamic_scheduling=False), id="static-async"),
    pytest.param(dict(async_memory=False), id="dynamic-sync"),
    pytest.param(
        dict(dynamic_scheduling=False, async_memory=False, bulk_synchronous=True),
        id="baseline-bulk",
    ),
]


class TestAllModesComplete:
    @pytest.mark.parametrize("overrides", ALL_MODES)
    def test_urw_completes_in_every_mode(self, overrides):
        g = load_dataset("WG", scale=0.05, seed=1)
        queries = make_queries(g, 48, seed=2)
        run = RidgeWalker(g, URWSpec(max_length=15), config(**overrides), seed=3).run(queries)
        assert run.results.num_queries == 48
        for path in run.results.paths:
            for a, b in zip(path[:-1], path[1:]):
                assert g.has_edge(int(a), int(b))

    @pytest.mark.parametrize("overrides", ALL_MODES)
    def test_metapath_completes_in_every_mode(self, overrides):
        g = load_dataset("WG", scale=0.05, seed=1, weighted=True)
        g = assign_metapath_schema(g, num_types=3, seed=4)
        queries = make_queries(g, 32, seed=5)
        spec = MetaPathSpec(pattern=[0, 1, 2], max_length=9)
        run = RidgeWalker(g, spec, config(**overrides), seed=6).run(queries)
        assert run.results.num_queries == 32


class TestMetricsConsistency:
    def test_transaction_count_tracks_steps_urw(self):
        g = load_dataset("AS", scale=0.05, seed=1)
        queries = make_queries(g, 64, seed=2)
        run = RidgeWalker(g, URWSpec(max_length=20), config(), seed=3).run(queries)
        # URW: exactly one row + one column transaction per hop, plus one
        # row access per terminal-dangling check.
        steps = run.metrics.total_steps
        assert steps <= run.metrics.random_transactions <= 2 * steps + len(queries) * 2

    def test_total_steps_equals_path_lengths(self):
        g = load_dataset("CP", scale=0.05, seed=1)
        queries = make_queries(g, 64, seed=2)
        run = RidgeWalker(g, URWSpec(max_length=20), config(), seed=3).run(queries)
        assert run.metrics.total_steps == int(run.results.lengths().sum())

    def test_words_at_least_transactions(self):
        g = load_dataset("WG", scale=0.05, seed=1, weighted=True)
        queries = make_queries(g, 32, seed=2)
        run = RidgeWalker(g, DeepWalkSpec(max_length=10), config(), seed=3).run(queries)
        assert run.metrics.words_transferred >= run.metrics.random_transactions

    def test_throughput_improves_with_pipelines(self):
        g = load_dataset("AS", scale=0.1, seed=1)
        queries = make_queries(g, 256, seed=2)
        spec = URWSpec(max_length=40)
        narrow = RidgeWalker(g, spec, config(num_pipelines=2), seed=3).run_streaming(
            queries, warmup_cycles=1500, measure_cycles=4000
        )
        wide = RidgeWalker(g, spec, config(num_pipelines=4), seed=3).run_streaming(
            queries, warmup_cycles=1500, measure_cycles=4000
        )
        assert wide.msteps_per_second() > 1.6 * narrow.msteps_per_second()


class TestDeviceConfigs:
    def test_ddr4_two_pipeline_machine(self):
        g = load_dataset("WG", scale=0.05, seed=1)
        queries = make_queries(g, 48, seed=2)
        cfg = RidgeWalkerConfig(num_pipelines=2, memory=DDR4_U250)
        run = RidgeWalker(g, URWSpec(max_length=15), cfg, seed=3).run(queries)
        assert run.results.num_queries == 48

    def test_second_order_tasks_thread_prev_vertex_across_pipelines(self):
        # Node2Vec on a multi-pipeline dynamic machine: prev_vertex must
        # survive rescheduling (it travels inside the task tuple).
        g = load_dataset("AS", scale=0.04, seed=1)
        queries = make_queries(g, 48, seed=2)
        spec = Node2VecSpec(p=1e9, q=1.0, max_length=20)
        run = RidgeWalker(g, spec, config(num_pipelines=4), seed=3).run(queries)
        for path in run.results.paths:
            for i in range(2, path.size):
                # with p -> inf, never backtrack (unless degree-1 trap,
                # which AS's undirected structure avoids for degree >= 2)
                if g.degree(int(path[i - 1])) > 1:
                    assert path[i] != path[i - 2]

    def test_ppr_lengths_unaffected_by_mode(self):
        g = load_dataset("AS", scale=0.05, seed=1)
        queries = make_queries(g, 200, seed=2)
        spec = PPRSpec(alpha=0.25, max_length=60)
        means = []
        for overrides in (dict(), dict(dynamic_scheduling=False)):
            run = RidgeWalker(g, spec, config(**overrides), seed=3).run(queries)
            means.append(run.results.lengths().mean())
        assert means[0] == pytest.approx(means[1], rel=0.2)
