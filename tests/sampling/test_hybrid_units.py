"""Unit tests for the hybrid selection layer: cost model, guards, scalar twin.

The property sweep (``test_hybrid_properties.py``) proves the vectorized
dispatch contracts; this file covers the row-local cost model's decision
table, every guard/error branch, and the scalar :class:`HybridSampler`
the reference engine runs in auto mode — held to the same exact per-hop
distributions as the base samplers via the shared chi-square helper.
"""

import numpy as np
import pytest
from row_oracles import row_index
from stat_helpers import CHI_SQUARE_ALPHA, assert_chi_square_fit, chi_square_compare

from repro.errors import SamplingError
from repro.graph import from_edges
from repro.graph.datasets import assign_metapath_schema
from repro.sampling import (
    AliasSampler,
    BiasedScanKernel,
    HybridConfig,
    HybridKernel,
    HybridSampler,
    NumpyRandomSource,
    QueryStreams,
    RejectionSampler,
    ReservoirSampler,
    StepContext,
    UniformSampler,
    exact_distribution,
    make_walk_kernel,
    make_walk_sampler,
    resolve_strategy_codes,
    select_row_strategy,
    select_strategies,
)
from repro.sampling.hybrid import (
    STRATEGY_ALIAS,
    STRATEGY_HEAVY,
    STRATEGY_ITS,
    STRATEGY_ONE,
    STRATEGY_REJECTION,
    STRATEGY_RESERVOIR,
    STRATEGY_UNIFORM,
)
from repro.sampling.vectorized import UniformKernel, make_kernel
from repro.walks import MetaPathSpec, Node2VecSpec, make_queries, run_walks, run_walks_batch
from repro.walks.node2vec import exact_step_distribution


class TestCostModel:
    def test_degenerate_rows_take_the_single_neighbor(self):
        assert select_row_strategy(0, None) == (STRATEGY_ONE, STRATEGY_ONE)
        assert select_row_strategy(1, np.array([7.0])) == (
            STRATEGY_ONE, STRATEGY_ONE,
        )

    def test_equal_weights_take_uniform(self):
        first, second = select_row_strategy(20, np.full(20, 3.5))
        assert first == STRATEGY_UNIFORM
        assert second == STRATEGY_HEAVY

    def test_small_rows_take_its(self):
        first, second = select_row_strategy(4, np.array([1.0, 5.0, 2.0, 9.0]))
        assert first == STRATEGY_ITS
        assert second == STRATEGY_ITS

    def test_dominant_first_edge_takes_its_at_high_degree(self):
        weights = np.array([1000.0] + [0.01] * 29)
        first, second = select_row_strategy(30, weights)
        assert first == STRATEGY_ITS      # expected scan depth ~1
        assert second == STRATEGY_HEAVY

    def test_dominant_last_edge_takes_alias(self):
        weights = np.array([0.01] * 29 + [1000.0])
        first, _ = select_row_strategy(30, weights)
        assert first == STRATEGY_ALIAS    # expected scan depth ~30

    def test_update_rate_widens_the_its_budget(self):
        weights = np.concatenate([np.full(10, 10.0), np.full(20, 0.2)])
        static_first, _ = select_row_strategy(30, weights)
        churny = HybridConfig(update_rate=1.0)
        churny_first, _ = select_row_strategy(30, weights, churny)
        assert static_first == STRATEGY_ALIAS
        assert churny_first == STRATEGY_ITS

    def test_unweighted_graph_first_order_is_uniform_or_degenerate(self):
        graph = from_edges([(0, 1), (0, 2), (1, 0)], num_vertices=3)
        codes = select_strategies(graph)
        assert codes[0, 0] == STRATEGY_UNIFORM      # degree 2
        assert codes[1, 0] == STRATEGY_ONE          # degree 1
        assert codes[2, 0] == STRATEGY_ONE          # degree 0 (never sampled)

    def test_config_validation(self):
        with pytest.raises(SamplingError, match="small_degree"):
            HybridConfig(small_degree=0)
        with pytest.raises(SamplingError, match="its_max_expected_reads"):
            HybridConfig(its_max_expected_reads=0.0)
        with pytest.raises(SamplingError, match="non-negative"):
            HybridConfig(update_rate=-1.0)


class TestResolveStrategyCodes:
    def _codes(self, n=4):
        codes = np.zeros((n, 2), dtype=np.int8)
        codes[:, 1] = STRATEGY_HEAVY
        return codes

    def test_heavy_resolves_per_base(self):
        codes = self._codes()
        rejection = resolve_strategy_codes(RejectionSampler(p=2, q=0.5), codes)
        reservoir = resolve_strategy_codes(ReservoirSampler(p=2.0, q=0.5), codes)
        assert set(rejection.tolist()) == {STRATEGY_REJECTION}
        assert set(reservoir.tolist()) == {STRATEGY_RESERVOIR}

    def test_edge_types_pin_reservoir_everywhere(self):
        codes = self._codes()
        codes[:, 1] = STRATEGY_ITS
        resolved = resolve_strategy_codes(
            ReservoirSampler(), codes, has_edge_types=True
        )
        assert set(resolved.tolist()) == {STRATEGY_RESERVOIR}

    def test_uniform_base_is_all_uniform(self):
        resolved = resolve_strategy_codes(UniformSampler(), self._codes())
        assert set(resolved.tolist()) == {STRATEGY_UNIFORM}

    def test_bad_shape_rejected(self):
        with pytest.raises(SamplingError, match="shape"):
            resolve_strategy_codes(UniformSampler(), np.zeros(4, dtype=np.int8))


def weighted_graph():
    rng = np.random.default_rng(7)
    edges, weights = [], []
    n = 16
    for v in range(n):
        degree = int(rng.integers(1, 12))
        dsts = rng.choice([u for u in range(n) if u != v], size=degree,
                          replace=False)
        for dst in dsts:
            edges.append((v, int(dst)))
            weights.append(float(rng.uniform(0.1, 10.0)))
    return from_edges(edges, num_vertices=n, weights=weights)


class TestHybridKernelGuards:
    def test_sample_before_prepare_rejected(self):
        kernel = HybridKernel(AliasSampler())
        with pytest.raises(SamplingError, match="prepare"):
            kernel.sample(weighted_graph(), np.array([0]), np.array([-1]),
                          None, QueryStreams(0, [0]), np.array([0]))

    def test_state_export_before_prepare_rejected(self):
        with pytest.raises(SamplingError, match="prepare"):
            HybridKernel(AliasSampler()).state_arrays()
        with pytest.raises(SamplingError, match="prepare"):
            HybridKernel(AliasSampler()).strategy_counts()

    def test_forced_map_must_match_vertex_count(self):
        kernel = HybridKernel(AliasSampler(),
                              selection=np.zeros(3, dtype=np.int8))
        with pytest.raises(SamplingError, match="entries"):
            kernel.prepare(weighted_graph())

    def test_forced_map_with_foreign_strategy_rejected(self):
        with pytest.raises(SamplingError, match="cannot dispatch"):
            HybridKernel(AliasSampler(),
                         selection=np.full(16, STRATEGY_REJECTION, dtype=np.int8))

    def test_unknown_base_sampler_rejected(self):
        from repro.sampling.base import SampleOutcome, Sampler

        class Bespoke(Sampler):
            name = "bespoke"

            def sample(self, graph, context, random_source):
                return SampleOutcome(index=0)

        with pytest.raises(SamplingError, match="default"):
            HybridKernel(Bespoke())
        with pytest.raises(SamplingError, match="default"):
            HybridSampler(Bespoke())

    def test_factories_map_modes(self):
        assert isinstance(make_walk_kernel(UniformSampler(), "default"),
                          UniformKernel)
        assert isinstance(make_walk_kernel(UniformSampler(), "auto"), HybridKernel)
        base = UniformSampler()
        assert make_walk_sampler(base, "default") is base
        assert isinstance(make_walk_sampler(base, "auto"), HybridSampler)


class TestBiasedScanKernel:
    def test_rejects_admissible_type(self):
        graph = weighted_graph()
        kernel = BiasedScanKernel(p=2.0, q=0.5)
        kernel.prepare(graph)
        with pytest.raises(SamplingError, match="admissib"):
            kernel.sample(graph, np.array([0]), np.array([-1]), np.array([1]),
                          QueryStreams(0, [0]), np.array([0]))

    def test_parameter_validation(self):
        with pytest.raises(SamplingError, match="together"):
            BiasedScanKernel(p=2.0)
        with pytest.raises(SamplingError, match="positive"):
            BiasedScanKernel(p=-1.0, q=0.5)

    def test_first_order_holds_no_state(self):
        kernel = BiasedScanKernel()
        kernel.prepare(weighted_graph())
        assert kernel.state_arrays() == {}

    def test_second_order_guards_state(self):
        kernel = BiasedScanKernel(p=2.0, q=0.5)
        with pytest.raises(SamplingError, match="prepare"):
            kernel.state_arrays()
        with pytest.raises(SamplingError, match="prepare"):
            kernel.sample(weighted_graph(), np.array([0]), np.array([1]),
                          None, QueryStreams(0, [0]), np.array([0]))

    def test_rejection_base_scan_ignores_weights(self):
        """Rejection's law is structural bias only; its scan stand-in must
        realize the same distribution even when the graph carries weights
        — otherwise auto mode would sample an inconsistent per-row
        mixture of two different laws."""
        graph = weighted_graph()
        spec = Node2VecSpec(p=8.0, q=8.0, strategy="rejection", max_length=10)
        forced_scan = np.full(graph.num_vertices, STRATEGY_ITS, dtype=np.int8)
        forced_rej = np.full(graph.num_vertices, STRATEGY_REJECTION, dtype=np.int8)
        scan = HybridKernel(spec.make_sampler(), selection=forced_scan)
        scan.prepare(graph)
        rej = HybridKernel(spec.make_sampler(), selection=forced_rej)
        rej.prepare(graph)
        queries = make_queries(graph, 400, seed=2)
        a = run_walks_batch(graph, spec, queries, seed=3, kernel=scan)
        b = run_walks_batch(graph, spec, queries, seed=4, kernel=rej)
        p = chi_square_compare(
            a.visit_counts(graph.num_vertices),
            b.visit_counts(graph.num_vertices),
        )
        assert p > CHI_SQUARE_ALPHA, (
            f"scan and rejection strategies realize different laws on a "
            f"weighted graph (p={p:.5f})"
        )

    def test_matches_exact_node2vec_distribution(self):
        """The scan strategy must realize the same exact law rejection
        and reservoir sampling converge to."""
        edges = [(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (1, 4), (2, 1),
                 (3, 1), (4, 1)]
        graph = from_edges(edges, num_vertices=5)
        kernel = BiasedScanKernel(p=4.0, q=0.25)
        kernel.prepare(graph)
        n = 40_000
        streams = QueryStreams(5, np.arange(n))
        current = np.full(n, 1, dtype=np.int64)
        batch = kernel.sample(
            graph,
            current,
            np.zeros(n, dtype=np.int64),
            None,
            streams,
            np.arange(n),
        )
        counts = np.bincount(row_index(graph, current, batch.vertex),
                             minlength=graph.degree(1))
        assert_chi_square_fit(
            counts, exact_step_distribution(graph, 1, 0, 4.0, 0.25),
            label="biased-scan kernel",
        )


class TestHybridSamplerScalar:
    """The reference engine's auto mode: every dispatch arm, exact laws."""

    def test_sample_before_prepare_rejected(self):
        sampler = HybridSampler(AliasSampler())
        with pytest.raises(SamplingError, match="prepare"):
            sampler.sample(weighted_graph(), StepContext(vertex=0),
                           NumpyRandomSource(np.random.default_rng(0)))

    @pytest.mark.parametrize("code,label", [
        (STRATEGY_UNIFORM, "uniform"),
        (STRATEGY_ALIAS, "alias"),
        (STRATEGY_ITS, "its"),
    ])
    def test_first_order_arms_fit_exact_distribution(self, code, label):
        graph = from_edges([(0, d) for d in range(1, 7)],
                           weights=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
                           if code != STRATEGY_UNIFORM else [2.0] * 6,
                           num_vertices=7)
        forced = np.full(7, code, dtype=np.int8)
        sampler = HybridSampler(AliasSampler(), selection=forced)
        sampler.prepare(graph)
        source = NumpyRandomSource(np.random.default_rng(13))
        counts = np.zeros(6)
        for _ in range(12_000):
            counts[sampler.sample(graph, StepContext(vertex=0), source).index] += 1
        assert_chi_square_fit(counts, exact_distribution(graph, 0),
                              label=f"scalar hybrid {label}")

    def test_second_order_scan_arm_fits_exact_distribution(self):
        edges = [(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (1, 4), (2, 1),
                 (3, 1), (4, 1)]
        graph = from_edges(edges, num_vertices=5)
        forced = np.full(5, STRATEGY_ITS, dtype=np.int8)
        sampler = HybridSampler(RejectionSampler(p=0.5, q=2.0), selection=forced)
        sampler.prepare(graph)
        source = NumpyRandomSource(np.random.default_rng(23))
        context = StepContext(vertex=1, prev_vertex=0)
        counts = np.zeros(graph.degree(1))
        for _ in range(12_000):
            counts[sampler.sample(graph, context, source).index] += 1
        assert_chi_square_fit(
            counts, exact_step_distribution(graph, 1, 0, 0.5, 2.0),
            label="scalar hybrid second-order scan",
        )

    def test_reference_auto_matches_batch_auto_distribution(self):
        graph = weighted_graph()
        spec = Node2VecSpec(p=2.0, q=0.5, strategy="reservoir", max_length=10)
        queries = make_queries(graph, 300, seed=3)
        reference = run_walks(graph, spec, queries, seed=4, sampler="auto")
        batch = run_walks_batch(graph, spec, queries, seed=5, sampler="auto")
        p = chi_square_compare(
            reference.visit_counts(graph.num_vertices),
            batch.visit_counts(graph.num_vertices),
        )
        assert p > CHI_SQUARE_ALPHA, f"auto engines diverge (p={p:.5f})"

    def test_metapath_auto_runs_and_follows_pattern(self):
        graph = weighted_graph()
        graph = assign_metapath_schema(graph, num_types=3, seed=2)
        spec = MetaPathSpec(pattern=[0, 1, 2], max_length=9)
        kernel = make_walk_kernel(spec.make_sampler(), "auto")
        kernel.prepare(graph)
        # Edge types pin every row to the reservoir strategy.
        assert kernel.strategy_counts() == {"reservoir": graph.num_vertices}
        results = run_walks_batch(graph, spec, make_queries(graph, 40, seed=6),
                                  seed=7, kernel=kernel)
        for path in results.paths:
            for hop, dst in enumerate(path[1:]):
                assert int(graph.vertex_types[int(dst)]) == [0, 1, 2][hop % 3]
