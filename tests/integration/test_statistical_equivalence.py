"""Statistical equivalence: the accelerator vs the reference engine.

The paper's correctness claim is that out-of-order, rescheduled execution
does not change walk *statistics* (Markov property, Section III-C).  We
verify it: visit histograms and transition frequencies produced by the
cycle-level machine must be statistically indistinguishable from the
pure-software reference engine's.
"""

import numpy as np
import pytest
from stat_helpers import CHI_SQUARE_ALPHA, chi_square_compare

from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.graph import from_edges, load_dataset
from repro.memory.spec import MemorySpec
from repro.walks import (
    DeepWalkSpec,
    Node2VecSpec,
    PPRSpec,
    Query,
    URWSpec,
    make_queries,
    run_walks,
)

#: Heavy chi-square sweeps against the cycle simulator: full CI lane only.
pytestmark = pytest.mark.slow

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


class TestVisitDistributions:
    def _compare(self, graph, spec, num_queries=400, seed=5):
        queries = make_queries(graph, num_queries, seed=seed)
        hw = RidgeWalker(graph, spec, config(), seed=seed + 1).run(queries)
        sw = run_walks(graph, spec, queries, seed=seed + 2)
        p = chi_square_compare(
            hw.results.visit_counts(graph.num_vertices),
            sw.visit_counts(graph.num_vertices),
        )
        assert p > CHI_SQUARE_ALPHA, f"visit distributions diverge (p={p:.5f})"

    def test_urw_visits_match(self):
        self._compare(load_dataset("WG", scale=0.05, seed=1), URWSpec(max_length=30))

    def test_ppr_visits_match(self):
        self._compare(
            load_dataset("AS", scale=0.05, seed=1), PPRSpec(alpha=0.2, max_length=40)
        )

    def test_deepwalk_visits_match(self):
        self._compare(
            load_dataset("WG", scale=0.05, seed=1, weighted=True),
            DeepWalkSpec(max_length=25),
        )

    def test_node2vec_visits_match(self):
        self._compare(
            load_dataset("AS", scale=0.04, seed=1),
            Node2VecSpec(max_length=20),
            num_queries=300,
        )


class TestTransitionDistributions:
    def test_weighted_transitions_match_exact(self):
        # Tiny weighted graph: hardware transition frequencies from
        # vertex 0 must converge to the exact weighted distribution.
        g = from_edges(
            [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)],
            weights=[1.0, 2.0, 5.0, 1.0, 1.0, 1.0],
            num_vertices=4,
        )
        queries = [Query(i, 0) for i in range(600)]
        hw = RidgeWalker(g, DeepWalkSpec(max_length=2), config(), seed=9).run(queries)
        transitions = hw.results.transition_counts(4)[0]
        total = transitions[1:].sum()
        observed = transitions[1:] / total
        expected = np.array([1.0, 2.0, 5.0]) / 8.0
        assert np.allclose(observed, expected, atol=0.06), (observed, expected)

    def test_walk_length_distribution_matches_geometric(self):
        from repro.graph import cycle_graph

        g = cycle_graph(512)
        alpha = 0.25
        queries = [Query(i, i % 512) for i in range(800)]
        hw = RidgeWalker(g, PPRSpec(alpha=alpha, max_length=200), config(), seed=11).run(queries)
        lengths = hw.results.lengths()
        assert lengths.mean() == pytest.approx(1 / alpha, rel=0.15)
        # Memorylessness: P(L > 8 | L > 4) ~ P(L > 4)
        p_gt4 = (lengths > 4).mean()
        p_gt8_given_gt4 = (lengths > 8).sum() / max(1, (lengths > 4).sum())
        assert abs(p_gt4 - p_gt8_given_gt4) < 0.12


class TestSchedulingInvariance:
    """Scheduling mode must not change statistics (only timing)."""

    def test_static_and_dynamic_agree(self):
        g = load_dataset("CP", scale=0.05, seed=1)
        queries = make_queries(g, 300, seed=3)
        spec = URWSpec(max_length=25)
        dynamic = RidgeWalker(g, spec, config(), seed=7).run(queries)
        static = RidgeWalker(g, spec, config(dynamic_scheduling=False), seed=7).run(queries)
        p = chi_square_compare(
            dynamic.results.visit_counts(g.num_vertices),
            static.results.visit_counts(g.num_vertices),
        )
        assert p > CHI_SQUARE_ALPHA

    def test_pipeline_count_does_not_change_statistics(self):
        g = load_dataset("WG", scale=0.05, seed=1)
        queries = make_queries(g, 300, seed=4)
        spec = URWSpec(max_length=25)
        narrow = RidgeWalker(g, spec, config(num_pipelines=2), seed=8).run(queries)
        wide = RidgeWalker(g, spec, config(num_pipelines=4), seed=8).run(queries)
        p = chi_square_compare(
            narrow.results.visit_counts(g.num_vertices),
            wide.results.visit_counts(g.num_vertices),
        )
        assert p > CHI_SQUARE_ALPHA
