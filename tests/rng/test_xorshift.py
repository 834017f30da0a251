"""Unit tests for the bit-exact generators."""

import numpy as np

from repro.rng import SplitMix64, XorShift128, splitmix64_next


class TestSplitMix64:
    def test_known_vector(self):
        # Reference values for seed 0 (widely published splitmix64 output).
        _, first = splitmix64_next(0)
        assert first == 0xE220A8397B1DCDAF

    def test_deterministic(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_outputs_fit_64_bits(self):
        gen = SplitMix64(999)
        assert all(0 <= gen.next_u64() < 2**64 for _ in range(100))


class TestXorShift128:
    def test_deterministic_from_seed(self):
        a = XorShift128.from_seed(42)
        b = XorShift128.from_seed(42)
        assert [a.next_u32() for _ in range(8)] == [b.next_u32() for _ in range(8)]

    def test_different_seeds_diverge(self):
        a = XorShift128.from_seed(1)
        b = XorShift128.from_seed(2)
        assert [a.next_u32() for _ in range(4)] != [b.next_u32() for _ in range(4)]

    def test_never_all_zero_state(self):
        gen = XorShift128.from_seed(0)
        assert any((gen.x, gen.y, gen.z, gen.w))

    def test_uniform_in_unit_interval(self):
        gen = XorShift128.from_seed(3)
        draws = [gen.uniform() for _ in range(2000)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_uniform_mean_near_half(self):
        gen = XorShift128.from_seed(4)
        draws = np.array([gen.uniform() for _ in range(20_000)])
        assert abs(draws.mean() - 0.5) < 0.01
        assert abs(draws.var() - 1 / 12) < 0.005

    def test_u32_outputs_fit_32_bits(self):
        gen = XorShift128.from_seed(5)
        assert all(0 <= gen.next_u32() < 2**32 for _ in range(100))

    def test_equidistribution_of_bytes(self):
        gen = XorShift128.from_seed(6)
        counts = np.zeros(256)
        for _ in range(8000):
            counts[gen.next_u32() & 0xFF] += 1
        # chi-square against uniform: 255 dof, mean 255, sd ~22.6
        expected = 8000 / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 255 + 6 * 22.6
