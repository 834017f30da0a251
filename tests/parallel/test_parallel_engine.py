"""Sharded parallel engine: bit-exact determinism and statistical equivalence.

Two oracles apply.  Against the batch engine the bar is *bit-identical*
results — same kernels, same per-query ``SeedSequence((seed, query_id))``
substreams, so sharding must not change a single vertex.  Against the
reference engine the bar is the usual chi-square equivalence of visit
distributions, on one spec per vectorized sampler kernel (uniform,
alias, rejection, reservoir).
"""

import numpy as np
import pytest
from stall_helpers import RETRY_HEAVY
from stat_helpers import CHI_SQUARE_ALPHA, chi_square_compare

from repro.engines import run_software_walks
from repro.errors import WalkConfigError
from repro.graph import load_dataset, path_graph
from repro.parallel import ParallelWalkEngine
from repro.walks.engine import STAT_FIELDS
from repro.walks import (
    DeepWalkSpec,
    EngineStats,
    Node2VecSpec,
    Query,
    URWSpec,
    make_queries,
    run_walks,
    run_walks_batch,
)

#: One spec per vectorized sampling kernel (Table I coverage).
SAMPLER_SPECS = {
    "uniform": lambda: URWSpec(max_length=15),
    "alias": lambda: DeepWalkSpec(max_length=15),
    "rejection": lambda: Node2VecSpec(max_length=12),
    "reservoir": lambda: Node2VecSpec(max_length=12, strategy="reservoir"),
}


def _weighted_graph():
    return load_dataset("WG", scale=0.08, seed=1, weighted=True)


class TestBitIdenticalDeterminism:
    def test_identical_across_worker_counts(self):
        graph = _weighted_graph()
        spec = DeepWalkSpec(max_length=15)
        queries = make_queries(graph, 120, seed=2)
        baseline = run_walks_batch(graph, spec, queries, seed=3)
        for workers in (1, 2, 4):
            result = run_software_walks("parallel", graph, spec, queries, seed=3,
                                        workers=workers)[0]
            assert result.num_queries == baseline.num_queries
            for a, b in zip(baseline.paths, result.paths):
                assert np.array_equal(a, b), f"diverged at workers={workers}"

    @pytest.mark.parametrize("p,q", RETRY_HEAVY)
    def test_retry_heavy_node2vec_identical_at_two_and_three_workers(self, p, q):
        """Each shard's supersteps retry its own rejected proposals; the
        paths and all six counters are the single-process run's."""
        graph = _weighted_graph()
        spec = Node2VecSpec(p=p, q=q, max_length=12)
        queries = make_queries(graph, 120, seed=6)
        expected = EngineStats()
        baseline = run_walks_batch(graph, spec, queries, seed=3, stats=expected)
        for workers in (2, 3):
            stats = EngineStats()
            result = run_software_walks("parallel", graph, spec, queries, seed=3,
                                        stats=stats, workers=workers)[0]
            for a, b in zip(baseline.paths, result.paths, strict=True):
                assert np.array_equal(a, b), f"diverged at workers={workers}"
            for name in STAT_FIELDS + ("total_hops",):
                assert getattr(stats, name) == getattr(expected, name), (workers, name)

    def test_identical_under_query_shuffle(self):
        graph = _weighted_graph()
        spec = URWSpec(max_length=15)
        queries = make_queries(graph, 80, seed=4)
        shuffled = list(queries)
        np.random.default_rng(5).shuffle(shuffled)
        forward = run_software_walks("parallel", graph, spec, queries, seed=6, workers=3)[0]
        permuted = run_software_walks("parallel", graph, spec, shuffled, seed=6, workers=2)[0]
        by_id = {q.query_id: i for i, q in enumerate(shuffled)}
        for position, query in enumerate(queries):
            assert np.array_equal(
                forward.path_of(position), permuted.path_of(by_id[query.query_id])
            )

    @pytest.mark.parametrize("kernel", sorted(SAMPLER_SPECS))
    def test_bit_identical_to_batch_engine_per_kernel(self, kernel):
        graph = _weighted_graph()
        spec = SAMPLER_SPECS[kernel]()
        queries = make_queries(graph, 60, seed=7)
        batch = run_walks_batch(graph, spec, queries, seed=8)
        parallel = run_software_walks("parallel", graph, spec, queries, seed=8, workers=2)[0]
        for a, b in zip(batch.paths, parallel.paths):
            assert np.array_equal(a, b)

    def test_stats_identical_to_batch_engine(self):
        graph = _weighted_graph()
        spec = Node2VecSpec(max_length=10)
        queries = make_queries(graph, 60, seed=9)
        batch_stats, parallel_stats = EngineStats(), EngineStats()
        run_walks_batch(graph, spec, queries, seed=10, stats=batch_stats)
        run_software_walks("parallel", graph, spec, queries, seed=10,
                           stats=parallel_stats, workers=3)
        assert parallel_stats == batch_stats


class TestStatisticalEquivalence:
    """Chi-square: parallel visit histograms vs the reference engine's."""

    @pytest.mark.parametrize("kernel", sorted(SAMPLER_SPECS))
    def test_matches_reference_engine(self, kernel):
        graph = _weighted_graph()
        spec = SAMPLER_SPECS[kernel]()
        queries = make_queries(graph, 400, seed=11)
        reference = run_walks(graph, spec, queries, seed=12)
        parallel = run_software_walks("parallel", graph, spec, queries, seed=13, workers=2)[0]
        p = chi_square_compare(
            reference.visit_counts(graph.num_vertices),
            parallel.visit_counts(graph.num_vertices),
        )
        assert p > CHI_SQUARE_ALPHA, f"visit distributions diverge for {kernel} (p={p:.5f})"


class TestEngineLifecycle:
    def test_persistent_engine_serves_many_batches(self):
        graph = _weighted_graph()
        spec = URWSpec(max_length=10)
        with ParallelWalkEngine(graph, spec, workers=2) as engine:
            first = engine.run(make_queries(graph, 40, seed=14), seed=15)
            second = engine.run(make_queries(graph, 40, seed=14), seed=15)
            assert engine.workers == 2
        for a, b in zip(first.paths, second.paths):
            assert np.array_equal(a, b)

    def test_closed_engine_rejects_runs(self):
        graph = path_graph(4)
        engine = ParallelWalkEngine(graph, URWSpec(max_length=5), workers=1)
        engine.close()
        with pytest.raises(WalkConfigError, match="closed"):
            engine.run([Query(0, 0)])
        engine.close()  # idempotent

    def test_zero_queries(self):
        graph = path_graph(4)
        results = run_software_walks("parallel", graph, URWSpec(max_length=5), [], workers=2)[0]
        assert results.num_queries == 0 and results.total_steps == 0

    def test_invalid_worker_count_rejected(self):
        graph = path_graph(4)
        with pytest.raises(WalkConfigError, match="workers"):
            ParallelWalkEngine(graph, URWSpec(max_length=5), workers=0)

    def test_out_of_range_start_fails_in_parent(self):
        from repro.errors import GraphError
        graph = path_graph(4)
        with ParallelWalkEngine(graph, URWSpec(max_length=5), workers=1) as engine:
            with pytest.raises(GraphError, match="out of range"):
                engine.run([Query(0, 99)])

    def test_scalar_only_termination_hook_rejected(self):
        from repro.sampling.uniform import UniformSampler
        from repro.walks.base import WalkSpec

        class LegacyPPR(WalkSpec):
            def make_sampler(self):
                return UniformSampler()

            def terminates_probabilistically(self, step, random_source):
                return random_source.uniform() < 0.2

        with pytest.raises(WalkConfigError, match="termination_probability"):
            ParallelWalkEngine(path_graph(4), LegacyPPR(max_length=5), workers=1)


class TestRegistryDispatch:
    def test_run_software_walks_parallel(self):
        graph = _weighted_graph()
        queries = make_queries(graph, 30, seed=16)
        results, elapsed = run_software_walks(
            "parallel", graph, URWSpec(max_length=8), queries, seed=17, workers=2
        )
        assert results.num_queries == 30
        assert elapsed > 0

    def test_none_options_mean_engine_default(self):
        graph = path_graph(4)
        results, _ = run_software_walks(
            "batch", graph, URWSpec(max_length=5), [Query(0, 0)], workers=None
        )
        assert results.num_queries == 1
