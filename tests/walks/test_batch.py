"""Unit and equivalence tests for the vectorized batch walk engine.

The batch engine must be a drop-in alternative to the reference loop:
identical semantics on deterministic graphs and identical EngineStats
accounting contracts.  That the two walk bit-identically, per walk spec,
is held by ``test_engine_matrix.py``.
"""

from collections import defaultdict

import numpy as np
import pytest
from stat_helpers import assert_chi_square_fit, assert_reference_equals_batch

from repro.bench.workloads import make_spec
from repro.engines import hops_per_second, run_software_walks
from repro.errors import SamplingError
from repro.graph import cycle_graph, from_edges, load_dataset, path_graph, rmat
from repro.graph.alias import alias_expected_distribution
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
    run_walks_batch,
)
from repro.walks.node2vec import exact_step_distribution


class TestBasicSemantics:
    def test_cycle_walk_is_deterministic_path(self):
        g = cycle_graph(5)
        results = run_walks_batch(g, URWSpec(max_length=7), [Query(0, 0)], seed=1)
        assert results.path_of(0).tolist() == [0, 1, 2, 3, 4, 0, 1, 2]

    def test_walk_stops_at_dangling_vertex(self):
        g = path_graph(4)
        results = run_walks_batch(g, URWSpec(max_length=80), [Query(0, 0)], seed=1)
        assert results.path_of(0).tolist() == [0, 1, 2, 3]

    def test_walk_from_dangling_start_has_zero_hops(self):
        g = path_graph(2)
        results = run_walks_batch(g, URWSpec(max_length=10), [Query(0, 1)], seed=1)
        assert results.path_of(0).tolist() == [1]
        assert results.total_steps == 0

    def test_zero_queries(self):
        g = cycle_graph(3)
        results = run_walks_batch(g, URWSpec(max_length=5), [], seed=1)
        assert results.num_queries == 0
        assert results.total_steps == 0

    def test_single_step_walks(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        qs = make_queries(g, 16, seed=2)
        results = run_walks_batch(g, URWSpec(max_length=1), qs, seed=3)
        assert all(results.lengths() == 1)
        for path in results.paths:
            assert g.has_edge(int(path[0]), int(path[1]))

    def test_max_length_respected(self):
        g = cycle_graph(3)
        results = run_walks_batch(g, URWSpec(max_length=5), [Query(0, 0)], seed=1)
        assert results.lengths().tolist() == [5]

    def test_deterministic_in_seed(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        qs = make_queries(g, 16, seed=2)
        a = run_walks_batch(g, URWSpec(max_length=10), qs, seed=3)
        b = run_walks_batch(g, URWSpec(max_length=10), qs, seed=3)
        for pa, pb in zip(a.paths, b.paths):
            assert np.array_equal(pa, pb)

    def test_independent_of_query_order(self):
        g = load_dataset("WG", scale=0.1, seed=1)
        q0, q1 = Query(0, 5), Query(1, 9)
        forward = run_walks_batch(g, URWSpec(max_length=10), [q0, q1], seed=3)
        backward = run_walks_batch(g, URWSpec(max_length=10), [q1, q0], seed=3)
        assert np.array_equal(forward.path_of(0), backward.path_of(1))
        assert np.array_equal(forward.path_of(1), backward.path_of(0))

    def test_independent_of_batch_composition(self):
        # A query's substream is keyed by (seed, query_id), so its path
        # must not change when other queries join the batch.
        g = load_dataset("WG", scale=0.1, seed=1)
        alone = run_walks_batch(g, URWSpec(max_length=10), [Query(7, 5)], seed=3)
        crowd = run_walks_batch(
            g, URWSpec(max_length=10), [Query(i, 9) for i in range(5)] + [Query(7, 5)], seed=3
        )
        assert np.array_equal(alone.path_of(0), crowd.path_of(5))

    def test_negative_seed_accepted_by_both_engines(self):
        # Regression: SeedSequence rejects negative entropy; the engines
        # must keep the historical "any int seed" contract by masking.
        g = load_dataset("WG", scale=0.1, seed=1)
        for runner in (run_walks, run_walks_batch):
            results = runner(g, URWSpec(max_length=5), [Query(0, 5)], seed=-3)
            assert results.num_queries == 1

    def test_paths_do_not_pin_superstep_buffer(self):
        # Regression: returning views into the (num_queries x capacity)
        # superstep buffer would pin its padding in memory for the
        # lifetime of any path.  Paths may share a *compact* buffer, but
        # that buffer must hold exactly the path data and nothing more.
        g = cycle_graph(5)
        results = run_walks_batch(g, URWSpec(max_length=4), [Query(0, 0), Query(1, 1)], seed=1)
        expected_entries = results.total_steps + results.num_queries
        for path in results.paths:
            base = path
            while base.base is not None:
                base = base.base
            assert base.size <= expected_entries

    def test_every_hop_follows_an_edge(self):
        g = load_dataset("CP", scale=0.1, seed=1)
        qs = make_queries(g, 8, seed=4)
        results = run_walks_batch(g, URWSpec(max_length=15), qs, seed=5)
        for path in results.paths:
            for a, b in zip(path[:-1], path[1:]):
                assert g.has_edge(int(a), int(b))

    def test_node2vec_never_backtracks_with_huge_p(self):
        g = from_edges([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)], num_vertices=3)
        spec = Node2VecSpec(p=1e9, q=1.0, max_length=40)
        results = run_walks_batch(g, spec, [Query(i, 0) for i in range(20)], seed=8)
        for path in results.paths:
            for i in range(2, path.size):
                assert path[i] != path[i - 2], f"backtracked in {path.tolist()}"

    def test_metapath_follows_pattern(self):
        g = load_dataset("WG", scale=0.1, seed=1, weighted=True)
        g = assign_metapath_schema(g, num_types=3, seed=9)
        pattern = [0, 1, 2]
        spec = MetaPathSpec(pattern=pattern, max_length=12)
        results = run_walks_batch(g, spec, make_queries(g, 20, seed=10), seed=11)
        for path in results.paths:
            for hop, dst in enumerate(path[1:]):
                assert int(g.vertex_types[int(dst)]) == pattern[hop % 3]

    def test_metapath_terminates_early_when_no_match(self):
        g = from_edges([(0, 1)], edge_types=[1], num_vertices=2)
        g = g.with_weights(np.ones(1))
        results = run_walks_batch(g, MetaPathSpec(pattern=[0], max_length=10), [Query(0, 0)], seed=12)
        assert results.path_of(0).tolist() == [0]

    def test_a_spec_declared_termination_ends_batch_walks(self):
        """A spec of its own declaring ``termination_probability()`` ends
        the superstep's walks as it ends the reference loop's: certain
        after the third hop, never before it."""
        from repro.sampling.uniform import UniformSampler
        from repro.walks.base import WalkSpec

        class ThreeHops(WalkSpec):
            def make_sampler(self):
                return UniformSampler()

            def termination_probability(self, hops):
                return np.where(np.asarray(hops) >= 2, 1.0, 0.0)

        queries = [Query(i, 0) for i in range(200)]
        stats = assert_reference_equals_batch(cycle_graph(1000), ThreeHops(max_length=10_000),
                                              queries, seed=6)
        assert stats.probabilistic_terminations == 200
        assert stats.per_query_hops == [3] * 200

    def test_unknown_sampler_rejected(self):
        from repro.sampling.base import Sampler
        from repro.walks.base import WalkSpec

        class BespokeSampler(Sampler):
            name = "bespoke"

            def draw(self, graph, vertex, degree, previous, admissible_type, stream):
                return 0, 1, 1

        class BespokeSpec(WalkSpec):
            def make_sampler(self):
                return BespokeSampler()

        g = cycle_graph(3).with_weights(np.ones(3))
        with pytest.raises(SamplingError, match="vectorized"):
            run_walks_batch(g, BespokeSpec(max_length=3), [Query(0, 0)], seed=1)



def exact_walk_law(graph, spec, source, step_law, hops):
    """The exact law of ``spec``'s walk from ``source``, by dynamic
    programming over walker states (the current vertex, and the previous
    one for a second-order spec).

    ``step_law(current, previous, hop)`` gives the probability of each
    entry of ``current``'s row on hop ``hop``; an all-zero law ends the
    walk there, as a dangling vertex does.  Returns, per hop ``1..hops``,
    the distribution of the vertex the walk stands on after that hop
    (one entry per vertex, then the mass of walks already over), and the
    distribution of the walk's last vertex, which is the endpoint law
    when ``hops`` is ``spec.max_length``.
    """
    n = graph.num_vertices
    states = {(None, source): 1.0}
    ended = np.zeros(n)
    at_hop = []
    for hop in range(hops):
        arrivals = np.zeros(n)
        following = defaultdict(float)
        stop = spec.termination_probability(hop)
        for (previous, current), mass in states.items():
            law = step_law(current, previous, hop) if graph.degree(current) else None
            if law is None or not law.any():
                ended[current] += mass
                continue
            key = current if spec.needs_prev_vertex else None
            for vertex, share in zip(graph.neighbors(current).tolist(), (mass * law).tolist()):
                if share:
                    arrivals[vertex] += share
                    following[(key, vertex)] += share * (1.0 - stop)
        ended += arrivals * stop
        at_hop.append(np.append(arrivals, max(0.0, 1.0 - arrivals.sum())))
        states = following
    for (_, current), mass in states.items():
        ended[current] += mass
    return at_hop, ended


def weighted_law(graph):
    def law(current, previous, hop):
        return alias_expected_distribution(graph, current)
    return law


def uniform_law(graph):
    def law(current, previous, hop):
        return np.full(graph.degree(current), 1.0 / graph.degree(current))
    return law


def node2vec_law(graph, spec):
    def law(current, previous, hop):
        return exact_step_distribution(graph, current, previous, spec.p, spec.q)
    return law


def metapath_law(graph, spec):
    def law(current, previous, hop):
        weights = graph.neighbor_weights(current).astype(np.float64)
        weights = weights * (graph.neighbor_edge_types(current) == spec.admissible_type(hop))
        total = weights.sum()
        return weights / total if total > 0 else weights
    return law


def assert_fits_exact_law(counts, law, label):
    """No draw lands where the exact law puts no mass, and the counts fit
    the law on its support (the chi-square cannot pool zero-mass bins)."""
    support = law > 0
    assert not counts[~support].any(), f"{label}: a draw the exact law rules out"
    assert_chi_square_fit(counts[support], law[support], label=label)


def hub(graph):
    return int(np.argmax(graph.degrees()))


class TestStatisticalEquivalence:
    """The batch walk against an exact answer: the law of the vertex at
    each of the first hops, or of the walk's endpoint, computed by
    :func:`exact_walk_law`, with every walk started at one vertex.
    Against the reference engine the batch walk is bit-identical, so a
    statistical check there would sample one distribution twice:
    ``test_engine_matrix.py`` holds that exactly."""

    HOPS = 3

    def _compare_hops(self, graph, spec, step_law, source, num_queries=4000, seed=5):
        results = run_walks_batch(
            graph, spec, [Query(i, source) for i in range(num_queries)], seed=seed
        )
        at_hop, _ = exact_walk_law(graph, spec, source, step_law, self.HOPS)
        n = graph.num_vertices
        for hop, expected in enumerate(at_hop, start=1):
            counts = np.zeros(n + 1)
            for path in results.paths:
                counts[int(path[hop]) if path.size > hop else n] += 1
            assert_fits_exact_law(counts, expected, f"{spec.name} hop {hop}")

    def test_urw(self):
        g = load_dataset("WG", scale=0.08, seed=1)
        self._compare_hops(g, URWSpec(max_length=30), uniform_law(g), hub(g))

    def test_deepwalk_weighted(self):
        g = load_dataset("WG", scale=0.08, seed=1, weighted=True)
        self._compare_hops(g, DeepWalkSpec(max_length=25), weighted_law(g), hub(g))

    def test_node2vec_rejection(self):
        g = load_dataset("AS", scale=0.05, seed=1)
        spec = Node2VecSpec(max_length=20)
        self._compare_hops(g, spec, node2vec_law(g, spec), hub(g))

    def test_node2vec_reservoir_weighted(self):
        g = load_dataset("WG", scale=0.08, seed=1, weighted=True)
        spec = Node2VecSpec(max_length=20, strategy="reservoir")
        self._compare_hops(g, spec, node2vec_law(g, spec), hub(g))

    def test_ppr(self):
        g = load_dataset("AS", scale=0.05, seed=1)
        spec = PPRSpec(alpha=0.2, max_length=40)
        source = hub(g)
        results = run_walks_batch(g, spec, [Query(i, source) for i in range(4000)], seed=5)
        _, endpoints = exact_walk_law(g, spec, source, uniform_law(g), spec.max_length)
        counts = np.bincount([int(path[-1]) for path in results.paths], minlength=g.num_vertices)
        assert_fits_exact_law(counts, endpoints, "PPR endpoint")

    def test_metapath(self):
        g = load_dataset("WG", scale=0.08, seed=1, weighted=True)
        g = assign_metapath_schema(g, num_types=3, seed=2)
        spec = MetaPathSpec(pattern=[0, 1, 2], max_length=12)
        first_type = np.add.reduceat(g.edge_types == 0, g.row_ptr[:-1])
        first_type[g.degrees() == 0] = 0
        self._compare_hops(g, spec, metapath_law(g, spec), int(np.argmax(first_type)))

    def test_ppr_lengths_are_geometric(self):
        g = cycle_graph(1000)
        spec = PPRSpec(alpha=0.2, max_length=10_000)
        results = run_walks_batch(g, spec, [Query(i, 0) for i in range(2000)], seed=6)
        lengths = results.lengths()
        assert lengths.mean() == pytest.approx(1 / 0.2, rel=0.1)
        # Memorylessness: P(L > 8 | L > 4) ~ P(L > 4).
        p_gt4 = (lengths > 4).mean()
        assert abs(p_gt4 - (lengths > 8).sum() / (lengths > 4).sum()) < 0.12

    def test_ppr_estimates_agree(self):
        g = load_dataset("CP", scale=0.1, seed=1)
        source = hub(g)
        queries = [Query(i, source) for i in range(4000)]
        spec = PPRSpec(alpha=0.2, max_length=100)
        _, exact = exact_walk_law(g, spec, source, uniform_law(g), spec.max_length)
        estimate = estimate_ppr(run_walks_batch(g, spec, queries, seed=8), g.num_vertices)
        assert float(np.abs(estimate - exact).sum()) < 0.5  # L1 of an MC estimate


class TestEngineStats:
    def test_termination_accounting_sums(self):
        g = load_dataset("CP", scale=0.1, seed=1)
        qs = make_queries(g, 40, seed=13)
        stats = EngineStats()
        run_walks_batch(g, URWSpec(max_length=10), qs, seed=14, stats=stats)
        terminations = (
            stats.dangling_terminations
            + stats.early_terminations
            + stats.probabilistic_terminations
            + stats.length_terminations
        )
        assert terminations == len(qs)
        assert stats.total_hops == sum(stats.per_query_hops)

    def test_per_query_hops_in_query_order(self):
        g = path_graph(5)  # deterministic: hop count = distance to the end
        queries = [Query(0, 2), Query(1, 0), Query(2, 4)]
        stats = EngineStats()
        run_walks_batch(g, URWSpec(max_length=10), queries, seed=1, stats=stats)
        assert stats.per_query_hops == [2, 4, 0]

    def test_uniform_cost_counters_match_hops(self):
        g = cycle_graph(8)
        stats = EngineStats()
        run_walks_batch(g, URWSpec(max_length=12), [Query(i, 0) for i in range(5)], seed=2,
                        stats=stats)
        # Uniform sampling: exactly one proposal and one read per hop.
        assert stats.sampling_proposals == stats.total_hops
        assert stats.neighbor_reads == stats.total_hops

    def test_alias_reads_twice_per_hop(self):
        g = cycle_graph(6).with_weights(np.arange(1.0, 7.0))
        stats = EngineStats()
        run_walks_batch(g, DeepWalkSpec(max_length=4), [Query(0, 0)], seed=3, stats=stats)
        assert stats.neighbor_reads == 2 * stats.total_hops

    def test_dangling_terminations_counted(self):
        g = path_graph(3)
        stats = EngineStats()
        run_walks_batch(g, URWSpec(max_length=10),
                        [Query(0, 0), Query(1, 2)], seed=4, stats=stats)
        assert stats.dangling_terminations == 2
        assert stats.length_terminations == 0


class TestThroughput:
    def test_batch_beats_the_reference_loop_tenfold(self):
        """The reason the vectorized engine exists: 10k DeepWalk queries
        of length 80 on RMAT-14 (edge factor 8) against the reference
        loop on a 300-query subsample (its hops/s is flat in the query
        count), each side paying its own prepare.  Measured ~300x on a
        2-CPU host (the reference draws the batch engine's streams one
        query at a time)."""
        graph = rmat(14, edge_factor=8, seed=1)
        spec = make_spec("DeepWalk")
        queries = make_queries(graph, 10_000, seed=2)
        rates = {}
        for engine, subset in (("batch", queries), ("reference", queries[:300])):
            stats = EngineStats()
            _, elapsed = run_software_walks(engine, graph, spec, subset, seed=3,
                                            stats=stats)
            rates[engine] = hops_per_second(stats.total_hops, elapsed)
        assert rates["batch"] >= 10 * rates["reference"], rates


class TestRNGStreamDerivation:
    """Regression: SeedSequence((seed, query_id)) keying must not collide.

    The old xor-mix derivation mapped (seed=0, query_id=1) and
    (seed=salt, query_id=0) to the same stream.
    """

    SALT = 0x9E3779B97F4A7C15 & (2**63 - 1)

    def _first_paths(self, runner):
        g = load_dataset("WG", scale=0.1, seed=1)
        hub = int(np.argmax(g.degrees()))  # branching start: paths are RNG-driven
        a = runner(g, URWSpec(max_length=20), [Query(1, hub)], seed=0).path_of(0)
        b = runner(g, URWSpec(max_length=20), [Query(0, hub)], seed=self.SALT).path_of(0)
        return a, b

    def test_reference_streams_do_not_collide(self):
        a, b = self._first_paths(run_walks)
        assert not np.array_equal(a, b)

    def test_batch_streams_do_not_collide(self):
        a, b = self._first_paths(run_walks_batch)
        assert not np.array_equal(a, b)
