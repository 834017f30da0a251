"""Unit tests for the vectorized sampling primitives."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph import from_edges, rmat
from repro.sampling import (
    AliasSampler,
    QueryStreams,
    RejectionSampler,
    ReservoirSampler,
    UniformSampler,
    make_kernel,
)
from repro.sampling.its import InverseTransformSampler
from repro.sampling.vectorized import (
    STALL,
    AliasKernel,
    ITSKernel,
    RejectionKernel,
    ReservoirKernel,
    UniformKernel,
    EdgeSet,
    seed_sequence_states,
)

from row_oracles import row_index
from stall_helpers import sample_decided


class TestSeedSequenceStates:
    """The batched derivation must be bit-exact SeedSequence((seed, qid))."""

    def _oracle(self, seed, query_ids):
        return np.array(
            [np.random.SeedSequence((seed, int(q))).generate_state(1, dtype=np.uint64)[0]
             for q in query_ids],
            dtype=np.uint64,
        )

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1])
    def test_bit_exact_vs_seed_sequence(self, seed):
        ids = [0, 1, 2, 1000, 2**31, 2**32 - 1, 2**32, 2**32 + 7, 2**48, 2**63 - 1]
        assert np.array_equal(seed_sequence_states(seed, ids), self._oracle(seed, ids))

    def test_bit_exact_on_random_ids(self):
        rng = np.random.default_rng(9)
        ids = np.concatenate([
            rng.integers(0, 2**32, 200), rng.integers(2**32, 2**63, 50)
        ]).astype(np.uint64)
        assert np.array_equal(seed_sequence_states(7, ids), self._oracle(7, ids))

    def test_empty(self):
        assert seed_sequence_states(1, []).size == 0

    def test_negative_seed_normalized_not_hung(self):
        # Regression: a negative seed must be masked like normalize_seed
        # does (a raw negative int would loop forever in word coercion).
        masked = (-3) & (2**64 - 1)
        assert np.array_equal(
            seed_sequence_states(-3, [0, 5]), seed_sequence_states(masked, [0, 5])
        )

    def test_negative_ids_rejected(self):
        with pytest.raises(SamplingError, match="non-negative"):
            seed_sequence_states(1, [-1])


class TestQueryStreams:
    def test_deterministic(self):
        a = QueryStreams(1, [0, 1, 2])
        b = QueryStreams(1, [0, 1, 2])
        idx = np.arange(3)
        assert np.array_equal(a.uniforms(idx), b.uniforms(idx))

    def test_streams_keyed_by_query_id_not_position(self):
        a = QueryStreams(1, [0, 1, 2])
        b = QueryStreams(1, [2, 1, 0])
        ua = a.uniforms(np.arange(3))
        ub = b.uniforms(np.arange(3))
        assert np.array_equal(ua, ub[::-1])

    def test_uniforms_in_unit_interval_and_uniform(self):
        streams = QueryStreams(3, list(range(64)))
        draws = np.concatenate([streams.uniforms(np.arange(64)) for _ in range(400)])
        assert draws.min() >= 0.0 and draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 0.01
        assert abs(np.var(draws) - 1 / 12) < 0.005

    def test_randints_respect_bounds(self):
        streams = QueryStreams(0, list(range(16)))
        bounds = np.arange(1, 17)
        for _ in range(200):
            draw = streams.randints(bounds, np.arange(16))
            assert np.all(draw >= 0) and np.all(draw < bounds)

    def test_element_uniforms_shape_and_range(self):
        streams = QueryStreams(0, [0, 1, 2])
        counts = np.array([3, 1, 5])
        flat = streams.element_uniforms(np.arange(3), counts)
        assert flat.shape == (9,)
        assert flat.min() >= 0.0 and flat.max() < 1.0

    def test_from_states_resumes_bit_identically(self):
        # The forwarding contract: draws, a state hand-off, then more
        # draws must equal one uninterrupted stream.
        oracle = QueryStreams(5, [3, 7, 11])
        live = QueryStreams(5, [3, 7, 11])
        idx = np.arange(3)
        oracle.uniforms(idx)
        live.uniforms(idx)
        resumed = QueryStreams.from_states(live.states().copy())
        assert np.array_equal(oracle.uniforms(idx), resumed.uniforms(idx))

    def test_from_states_wraps_by_reference(self):
        # Zero-copy: draws through the wrapper advance the caller's
        # array in place, so a shard's walker table IS the RNG state.
        carried = QueryStreams(1, [0, 1]).states().copy()
        before = carried.copy()
        streams = QueryStreams.from_states(carried)
        assert streams.states() is carried
        streams.uniforms(np.arange(2))
        assert not np.array_equal(carried, before)

    def test_from_states_permutation_matches_reseeding(self):
        # Forwarding reorders walkers arbitrarily; a permuted slice of
        # the state array must behave as streams for the permuted ids.
        states = seed_sequence_states(9, [0, 1, 2, 3])
        perm = np.array([2, 0, 3, 1])
        shuffled = QueryStreams.from_states(states[perm].copy())
        direct = QueryStreams(9, [2, 0, 3, 1])
        idx = np.arange(4)
        assert np.array_equal(shuffled.uniforms(idx), direct.uniforms(idx))

    def test_from_states_validates_dtype_and_shape(self):
        with pytest.raises(SamplingError, match="1-D uint64"):
            QueryStreams.from_states(np.zeros(3, dtype=np.int64))
        with pytest.raises(SamplingError, match="1-D uint64"):
            QueryStreams.from_states(np.zeros((2, 2), dtype=np.uint64))


class TestEdgeKeys:
    def test_matches_has_edge_everywhere(self):
        g = rmat(6, edge_factor=3, seed=2)
        n = g.num_vertices
        src, dst = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        exists = EdgeSet.build(g).contains(src.ravel(), dst.ravel()).reshape(n, n)
        for v in range(n):
            for u in range(n):
                assert exists[v, u] == g.has_edge(v, u)

    def test_empty_graph(self):
        g = from_edges([], num_vertices=4)
        assert not EdgeSet.build(g).contains(np.array([0]), np.array([1]))[0]


def empirical_kernel(kernel, graph, vertex, prev=None, admissible=None, rounds=20_000):
    """Empirical within-neighborhood choice distribution of one kernel."""
    streams = QueryStreams(0, list(range(rounds)))
    current = np.full(rounds, vertex, dtype=np.int64)
    previous = np.full(rounds, -1 if prev is None else prev, dtype=np.int64)
    batch = sample_decided(kernel, graph, current, previous, admissible, streams,
                           np.arange(rounds))
    degree = graph.degree(vertex)
    choice = row_index(graph, current, batch.vertex)
    counts = np.bincount(choice[choice >= 0], minlength=degree)
    return counts / max(1, choice.size)


def weighted_fan():
    return from_edges(
        [(0, 1), (0, 2), (0, 3), (0, 4)],
        weights=[1.0, 2.0, 3.0, 4.0],
        num_vertices=5,
    )


class TestKernelDistributions:
    def test_uniform_kernel(self):
        g = weighted_fan()
        dist = empirical_kernel(UniformKernel(), g, 0)
        assert np.allclose(dist, 0.25, atol=0.02)

    def test_alias_kernel_weighted(self):
        g = weighted_fan()
        kernel = AliasKernel()
        kernel.prepare(g)
        dist = empirical_kernel(kernel, g, 0)
        assert np.allclose(dist, np.array([1, 2, 3, 4]) / 10.0, atol=0.02)

    def test_rejection_kernel_second_order(self):
        from repro.walks.node2vec import exact_step_distribution

        g = from_edges(
            [(0, 1), (0, 2), (1, 0), (1, 2), (1, 3), (2, 0), (3, 1)],
            num_vertices=4,
        )
        kernel = RejectionKernel(p=2.0, q=0.5)
        kernel.prepare(g)
        dist = empirical_kernel(kernel, g, 1, prev=0)
        expected = exact_step_distribution(g, current=1, previous=0, p=2.0, q=0.5)
        assert np.allclose(dist, expected, atol=0.02)

    def test_rejection_mixed_frontier_equals_each_walker_alone(self):
        """First hops, decided and retrying walkers in one frontier: every
        walker's choice and cost are those of sampling it on its own."""
        g = rmat(6, edge_factor=4, seed=2)
        kernel = RejectionKernel(p=4.0, q=0.25)  # retry-heavy
        kernel.prepare(g)
        current = np.flatnonzero(g.degrees() > 0)[:40]
        previous = np.roll(current, 1)
        previous[::3] = -1
        ids = np.arange(current.size)
        whole = sample_decided(kernel, g, current, previous, None, QueryStreams(7, ids), None)
        alone = [
            sample_decided(kernel, g, current[k:k + 1], previous[k:k + 1], None,
                           QueryStreams(7, ids[k:k + 1]), None)
            for k in ids
        ]
        assert whole.vertex.tolist() == [int(b.vertex[0]) for b in alone]
        assert whole.proposals == sum(b.proposals for b in alone) > current.size
        assert whole.neighbor_reads == sum(b.neighbor_reads for b in alone)

    def test_rejection_kernel_runs_one_round_per_call(self):
        """A call proposes once per walker: the rejected come back as
        ``STALL``, listed ascending in ``stalled``; first hops never stall."""
        g = rmat(6, edge_factor=4, seed=2)
        kernel = RejectionKernel(p=4.0, q=0.25)
        kernel.prepare(g)
        current = np.flatnonzero(g.degrees() > 0)[:40]
        previous = np.roll(current, 1)
        previous[::3] = -1
        batch = kernel.sample(g, current, previous, None, QueryStreams(7, np.arange(40)), None)
        assert batch.proposals == current.size
        assert batch.stalled.size and (np.diff(batch.stalled) > 0).all()
        assert np.array_equal(np.flatnonzero(batch.vertex == STALL), batch.stalled)
        assert (previous[batch.stalled] >= 0).all()
        assert (np.delete(batch.vertex, batch.stalled) >= 0).all()

    def test_reservoir_kernel_weighted(self):
        g = weighted_fan()
        kernel = ReservoirKernel()
        kernel.prepare(g)
        dist = empirical_kernel(kernel, g, 0)
        assert np.allclose(dist, np.array([1, 2, 3, 4]) / 10.0, atol=0.02)

    def test_reservoir_kernel_type_filter(self):
        g = from_edges(
            [(0, 1), (0, 2), (0, 3)],
            edge_types=[0, 1, 0],
            num_vertices=4,
        )
        kernel = ReservoirKernel()
        kernel.prepare(g)
        dist = empirical_kernel(kernel, g, 0, admissible=0, rounds=6000)
        assert dist[1] == 0.0
        assert np.allclose(dist[[0, 2]], 0.5, atol=0.03)

    def test_reservoir_kernel_no_admissible_terminates(self):
        g = from_edges([(0, 1)], edge_types=[0], num_vertices=2)
        kernel = ReservoirKernel()
        kernel.prepare(g)
        streams = QueryStreams(0, [0])
        batch = kernel.sample(
            g, np.array([0]), np.array([-1]), 5, streams, np.array([0])
        )
        assert batch.vertex[0] == -1


class TestKernelFactory:
    def test_maps_all_table_one_samplers(self):
        assert isinstance(make_kernel(UniformSampler()), UniformKernel)
        assert isinstance(make_kernel(AliasSampler()), AliasKernel)
        assert isinstance(make_kernel(InverseTransformSampler()), ITSKernel)
        assert isinstance(make_kernel(RejectionSampler(p=2, q=0.5)), RejectionKernel)
        reservoir = make_kernel(ReservoirSampler(p=2.0, q=0.5))
        assert isinstance(reservoir, ReservoirKernel)
        assert reservoir.second_order

    def test_unknown_sampler_rejected(self):
        """An unmapped sampler must fail loudly *and* tell the user where
        to go: the reference engine runs any scalar sampler."""
        from repro.sampling.base import SampleOutcome, Sampler

        class NovelSampler(Sampler):
            name = "novel"
            rp_entry_bits = 64

            def sample(self, graph, context, random_source):
                return SampleOutcome(index=0, proposals=1, neighbor_reads=1)

        with pytest.raises(SamplingError, match="reference engine") as excinfo:
            make_kernel(NovelSampler())
        # The message names the offending sampler so the error is
        # actionable from a CLI stack trace.
        assert "novel" in str(excinfo.value)

    def test_unknown_sampler_subclass_rejected(self):
        """The factory keys on known types, not hasattr duck-typing: a
        novel Sampler subclass (no kernel written yet) is rejected with
        the same pointer at the reference engine."""
        from repro.sampling.base import SampleOutcome, Sampler

        class BespokeSampler(Sampler):
            name = "bespoke"
            rp_entry_bits = 64

            def sample(self, graph, context, random_source):
                return SampleOutcome(index=0, proposals=1, neighbor_reads=1)

        with pytest.raises(SamplingError, match="reference engine"):
            make_kernel(BespokeSampler())
