"""Unit tests for the software reference walk engine."""

import numpy as np
import pytest

from repro.graph import cycle_graph, from_edges, load_dataset, path_graph
from repro.graph.datasets import assign_metapath_schema
from repro.walks import (
    DeepWalkSpec,
    EngineStats,
    MetaPathSpec,
    Node2VecSpec,
    PPRSpec,
    Query,
    URWSpec,
    estimate_ppr,
    make_queries,
    run_walks,
)
from repro.walks.base import draw_termination
from repro.walks.reference import run_walks as run_walks_direct


class TestBasicSemantics:
    def test_cycle_walk_is_deterministic_path(self):
        g = cycle_graph(5)
        results = run_walks(g, URWSpec(max_length=7), [Query(0, 0)], seed=1)
        assert results.path_of(0).tolist() == [0, 1, 2, 3, 4, 0, 1, 2]

    def test_walk_stops_at_dangling_vertex(self):
        g = path_graph(4)  # 0->1->2->3, 3 dangles
        results = run_walks(g, URWSpec(max_length=80), [Query(0, 0)], seed=1)
        assert results.path_of(0).tolist() == [0, 1, 2, 3]

    def test_walk_from_dangling_start_has_zero_hops(self):
        g = path_graph(2)
        results = run_walks(g, URWSpec(max_length=10), [Query(0, 1)], seed=1)
        assert results.path_of(0).tolist() == [1]
        assert results.total_steps == 0

    def test_max_length_respected(self):
        g = cycle_graph(3)
        results = run_walks(g, URWSpec(max_length=5), [Query(0, 0)], seed=1)
        assert results.lengths().tolist() == [5]

    def test_deterministic_in_seed(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        qs = make_queries(g, 16, seed=2)
        a = run_walks(g, URWSpec(max_length=10), qs, seed=3)
        b = run_walks(g, URWSpec(max_length=10), qs, seed=3)
        for pa, pb in zip(a.paths, b.paths):
            assert np.array_equal(pa, pb)

    def test_independent_of_query_order(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        q0, q1 = Query(0, 5), Query(1, 9)
        forward = run_walks(g, URWSpec(max_length=10), [q0, q1], seed=3)
        backward = run_walks(g, URWSpec(max_length=10), [q1, q0], seed=3)
        assert np.array_equal(forward.path_of(0), backward.path_of(1))
        assert np.array_equal(forward.path_of(1), backward.path_of(0))

    def test_every_hop_follows_an_edge(self):
        g = load_dataset("CP", scale=0.1, seed=1)
        qs = make_queries(g, 8, seed=4)
        results = run_walks(g, URWSpec(max_length=15), qs, seed=5)
        for path in results.paths:
            for a, b in zip(path[:-1], path[1:]):
                assert g.has_edge(int(a), int(b))


class TestPPR:
    def test_termination_is_geometric(self):
        g = cycle_graph(1000)  # no dangling: only alpha terminates
        spec = PPRSpec(alpha=0.2, max_length=10_000)
        qs = [Query(i, 0) for i in range(2000)]
        results = run_walks(g, spec, qs, seed=6)
        mean_length = results.lengths().mean()
        assert mean_length == pytest.approx(1 / 0.2, rel=0.1)

    def test_a_scalar_termination_hook_is_honoured(self):
        """A spec of its own declaring ``termination_probability()`` ends
        the scalar loop's walks as it says, hop by hop: certain after the
        third hop, never before it."""
        from repro.sampling import UniformSampler
        from repro.walks import WalkSpec

        class ThreeHops(WalkSpec):
            def make_sampler(self):
                return UniformSampler()

            def termination_probability(self, hops):
                return np.where(np.asarray(hops) >= 2, 1.0, 0.0)

        stats = EngineStats()
        results = run_walks(cycle_graph(1000), ThreeHops(max_length=10_000),
                            [Query(i, 0) for i in range(200)], seed=6, stats=stats)
        assert stats.probabilistic_terminations == 200
        assert results.lengths().tolist() == [3] * 200

    def test_draw_termination_draws_only_when_the_walk_can_end(self):
        """One uniform when the probability is above 0, compared against
        it; none at 0, so a spec that never terminates moves no stream."""

        class Uniforms:
            def __init__(self, *values):
                self.values = list(values)

            def uniform(self):
                return self.values.pop(0)

        never, alpha = URWSpec(max_length=5), PPRSpec(alpha=0.2, max_length=5)
        source = Uniforms(0.1, 0.3)
        assert not draw_termination(never, 0, source)
        assert source.values == [0.1, 0.3]
        assert draw_termination(alpha, 0, source)
        assert not draw_termination(alpha, 1, source)
        assert source.values == []

    def test_estimate_ppr_normalized(self):
        g = cycle_graph(10)
        results = run_walks(g, PPRSpec(alpha=0.3), [Query(i, 0) for i in range(500)], seed=7)
        scores = estimate_ppr(results, g.num_vertices)
        assert scores.sum() == pytest.approx(1.0)
        # mass should concentrate near the personalization vertex
        assert scores[0] + scores[1] + scores[2] > scores[5] + scores[6] + scores[7]


class TestSecondOrderAndTyped:
    def test_node2vec_prev_vertex_threading(self):
        # With p huge, the walk should never immediately backtrack.
        g = from_edges([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)], num_vertices=3)
        spec = Node2VecSpec(p=1e9, q=1.0, max_length=40)
        results = run_walks(g, spec, [Query(i, 0) for i in range(20)], seed=8)
        for path in results.paths:
            for i in range(2, path.size):
                assert path[i] != path[i - 2], f"backtracked in {path.tolist()}"

    def test_metapath_follows_pattern(self):
        g = load_dataset("WG", scale=0.1, seed=1, weighted=True)
        g = assign_metapath_schema(g, num_types=3, seed=9)
        pattern = [0, 1, 2]
        spec = MetaPathSpec(pattern=pattern, max_length=12)
        qs = make_queries(g, 20, seed=10)
        results = run_walks(g, spec, qs, seed=11)
        for path in results.paths:
            for hop, dst in enumerate(path[1:]):
                assert int(g.vertex_types[int(dst)]) == pattern[hop % 3]

    def test_metapath_terminates_early_when_no_match(self):
        # Vertex 0's only edge has type 1; pattern demands type 0.
        g = from_edges([(0, 1)], edge_types=[1], num_vertices=2)
        g = g.with_weights(np.ones(1))
        spec = MetaPathSpec(pattern=[0], max_length=10)
        results = run_walks(g, spec, [Query(0, 0)], seed=12)
        assert results.path_of(0).tolist() == [0]


class TestEngineStats:
    def test_termination_accounting_sums(self):
        g = load_dataset("CP", scale=0.1, seed=1)
        qs = make_queries(g, 40, seed=13)
        stats = EngineStats()
        run_walks(g, URWSpec(max_length=10), qs, seed=14, stats=stats)
        terminations = (
            stats.dangling_terminations
            + stats.early_terminations
            + stats.probabilistic_terminations
            + stats.length_terminations
        )
        assert terminations == len(qs)
        assert stats.total_hops == sum(stats.per_query_hops)

    def test_imbalance_ratio_on_balanced_walks(self):
        g = cycle_graph(10)
        qs = [Query(i, i % 10) for i in range(10)]
        stats = EngineStats()
        run_walks(g, URWSpec(max_length=10), qs, seed=15, stats=stats)
        assert stats.imbalance_ratio() == pytest.approx(1.0)

    def test_reservoir_reads_counted(self):
        g = load_dataset("WG", scale=0.1, seed=1, weighted=True)
        qs = make_queries(g, 10, seed=16)
        stats = EngineStats()
        run_walks(g, DeepWalkSpec(max_length=5), qs, seed=17, stats=stats)
        assert stats.neighbor_reads > 0

    def test_alias_for_deepwalk_used(self):
        # DeepWalk must run on weighted graphs without error and respect
        # max_length exactly on non-dangling graphs.
        g = cycle_graph(6).with_weights(np.arange(1.0, 7.0))
        results = run_walks(g, DeepWalkSpec(max_length=4), [Query(0, 0)], seed=18)
        assert results.lengths().tolist() == [4]
