"""Unit tests for the ThundeRiNG-style multi-stream RNG."""

import hashlib

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.rng import RingRandomSource, SplitMix64, ThunderRing, XorShift128, stream_correlation
from repro.rng.thundering import _LCG_INCREMENT, _LCG_MULTIPLIER

_MASK64 = (1 << 64) - 1


class TestConstruction:
    def test_requires_positive_streams(self):
        with pytest.raises(SamplingError):
            ThunderRing(num_streams=0)

    def test_num_streams(self):
        assert ThunderRing(num_streams=16).num_streams == 16


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = ThunderRing(4, seed=11)
        b = ThunderRing(4, seed=11)
        assert [a.next_u64(0) for _ in range(8)] == [b.next_u64(0) for _ in range(8)]

    def test_different_seed_diverges(self):
        a = ThunderRing(4, seed=11)
        b = ThunderRing(4, seed=12)
        assert [a.next_u64(0) for _ in range(4)] != [b.next_u64(0) for _ in range(4)]

    def test_streams_differ(self):
        s0 = RingRandomSource(ThunderRing(4, seed=3), 0)
        s1 = RingRandomSource(ThunderRing(4, seed=3), 1)
        assert [s0.uniform() for _ in range(16)] != [s1.uniform() for _ in range(16)]


class TestStatistics:
    def test_uniform_range(self):
        source = RingRandomSource(ThunderRing(2, seed=1), 0)
        assert all(0.0 <= source.uniform() < 1.0 for _ in range(1000))

    def test_uniform_moments(self):
        source = RingRandomSource(ThunderRing(1, seed=2), 0)
        draws = np.array([source.uniform() for _ in range(20_000)])
        assert abs(draws.mean() - 0.5) < 0.01
        assert abs(draws.var() - 1 / 12) < 0.005

    def test_streams_decorrelated(self):
        ring = ThunderRing(8, seed=5)
        r = stream_correlation(ring, 0, 7, samples=4096)
        # |r| should be within ~5 sigma of zero (sigma ~ 1/sqrt(n))
        assert abs(r) < 5 / np.sqrt(4096)

    def test_adjacent_streams_decorrelated(self):
        ring = ThunderRing(8, seed=6)
        r = stream_correlation(ring, 3, 4, samples=4096)
        assert abs(r) < 5 / np.sqrt(4096)


class TestRandint:
    def test_bounds(self):
        source = RingRandomSource(ThunderRing(1, seed=7), 0)
        draws = [source.randint(10) for _ in range(2000)]
        assert min(draws) >= 0 and max(draws) < 10

    def test_uniformity_chi_square(self):
        source = RingRandomSource(ThunderRing(1, seed=8), 0)
        counts = np.zeros(7)
        n = 14_000
        for _ in range(n):
            counts[source.randint(7)] += 1
        expected = n / 7
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 6 + 6 * np.sqrt(12)  # 6 dof, generous bound

    def test_bound_one_always_zero(self):
        source = RingRandomSource(ThunderRing(1, seed=9), 0)
        assert all(source.randint(1) == 0 for _ in range(20))

    def test_rejects_nonpositive_bound(self):
        source = RingRandomSource(ThunderRing(1, seed=10), 0)
        with pytest.raises(SamplingError):
            source.randint(0)

    def test_rejects_bad_stream(self):
        ring = ThunderRing(2, seed=11)
        with pytest.raises(SamplingError, match="stream"):
            ring.next_u64(2)


class TestPinnedDraws:
    """The draws of ``ThunderRing(4, seed)``, recorded from the
    object-per-stream implementation: 64 ``next_u64`` interleaved over
    streams 0-3, then 16 ``randint(7)`` and 16 ``uniform()`` the same
    way, through one ``RingRandomSource`` per stream.  The cycle model's
    every decision comes from these streams."""

    PINNED = {
        0: ("8d22639f86b93b9a2bcff22c2691ca8cea858b08a0c8e010c59bc69aa053d2cf",
            [0xF0B92C0E75C15927, 0xC8236627C2E64667, 0x2C5085264C4C59AC, 0x71B85CEA3541D1A8],
            [0, 4, 6, 5, 2, 1, 4, 1, 0, 3, 4, 4, 6, 2, 1, 1]),
        1: ("8fe223eaeea61c13d133522652d83617d1e7b51c736a1e864dc7a58cae95c35a",
            [0x045FF2DEC1301286, 0x0DF6965EDB565B24, 0x23A4D24A51803238, 0xA9CE9C3E187335C0],
            [4, 2, 3, 0, 0, 2, 4, 2, 2, 5, 3, 2, 5, 4, 3, 3]),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_draws_are_pinned(self, seed):
        digest, first_words, randints = self.PINNED[seed]
        ring = ThunderRing(4, seed)
        sources = [RingRandomSource(ring, s) for s in range(4)]
        words = [ring.next_u64(i % 4) for i in range(64)]
        ints = [sources[i % 4].randint(7) for i in range(16)]
        floats = [sources[i % 4].uniform() for i in range(16)]
        assert words[:4] == first_words
        assert ints == randints
        assert hashlib.sha256(repr((words, ints, floats)).encode()).hexdigest() == digest


class _OracleRing:
    """ThundeRiNG from its definition: a SplitMix64 root seed, one odd
    increment and one ``XorShift128`` scrambler per stream, the shared
    LCG advanced once per draw."""

    def __init__(self, num_streams, seed):
        mixer = SplitMix64(seed)
        self.root = mixer.next_u64()
        self.increments = [mixer.next_u64() | 1 for _ in range(num_streams)]
        self.scramblers = [XorShift128.from_seed(mixer.next_u64()) for _ in range(num_streams)]

    def next_u64(self, stream):
        self.root = (self.root * _LCG_MULTIPLIER + _LCG_INCREMENT) & _MASK64
        mixed = (self.root + self.increments[stream]) & _MASK64
        return mixed ^ self.scramblers[stream].next_u64()


class TestDefinitionOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_interleaved_draws_match_the_definition(self, seed):
        ring, oracle = ThunderRing(8, seed), _OracleRing(8, seed)
        order = np.random.default_rng(seed % 1000).integers(0, 8, size=1000)
        for stream in order.tolist():
            assert ring.next_u64(stream) == oracle.next_u64(stream)

    @pytest.mark.parametrize("stream", [-1, 8, 100])
    def test_bad_stream_leaves_the_ring_untouched(self, stream):
        ring, oracle = ThunderRing(8, 3), _OracleRing(8, 3)
        with pytest.raises(SamplingError, match="out of range"):
            ring.next_u64(stream)
        with pytest.raises(SamplingError, match="out of range"):
            RingRandomSource(ring, stream)
        assert [ring.next_u64(s) for s in range(8)] == [oracle.next_u64(s) for s in range(8)]

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_stream_handles_step_the_ring_they_share(self, seed):
        """A handle's inline uniform is ``next_u64``'s top 53 bits, and
        handles, ``randint`` and ``next_u64`` on one ring interleave
        into the definition's one sequence."""
        ring, oracle = ThunderRing(8, seed), _OracleRing(8, seed)
        sources = [RingRandomSource(ring, s) for s in range(8)]
        order = np.random.default_rng(seed % 997).integers(0, 8, size=600)
        for i, stream in enumerate(order.tolist()):
            if i % 3 == 0:
                assert sources[stream].uniform() == (oracle.next_u64(stream) >> 11) * 2.0**-53
            elif i % 3 == 1:
                assert sources[stream].randint(2**63 + 1) == _oracle_randint(
                    oracle, stream, 2**63 + 1)
            else:
                assert ring.next_u64(stream) == oracle.next_u64(stream)


def _oracle_randint(oracle, stream, bound):
    zone = 2**64 - 2**64 % bound
    while (draw := oracle.next_u64(stream)) >= zone:
        pass
    return draw % bound
