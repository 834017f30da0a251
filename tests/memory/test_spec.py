"""Unit tests for memory specs and Equation (1)."""

import pytest

from repro.errors import MemoryModelError
from repro.memory import (
    DDR4_U250,
    DDR4_VCK5000,
    HBM2_U50,
    HBM2_U55C,
    MemorySpec,
)


class TestMemorySpec:
    def test_peak_random_bandwidth(self):
        # Eq (1): rate * channels * 8 bytes.
        spec = MemorySpec("t", num_channels=4, random_tx_rate_mhz=100, sequential_gbs=50)
        assert spec.peak_random_bandwidth_gbs() == pytest.approx(4 * 100e6 * 8 / 1e9)

    def test_channel_tx_per_core_cycle(self):
        spec = MemorySpec("t", num_channels=1, random_tx_rate_mhz=160, sequential_gbs=10)
        assert spec.channel_tx_per_core_cycle(320.0) == pytest.approx(0.5)

    def test_burst_cost_monotone(self):
        spec = HBM2_U55C
        costs = [spec.burst_cost_tx(w) for w in (1, 2, 8, 64)]
        assert costs[0] == 1.0
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_burst_cost_cheaper_than_random(self):
        # A 16-word burst must cost far less than 16 random transactions.
        assert HBM2_U55C.burst_cost_tx(16) < 4.0

    def test_validation(self):
        with pytest.raises(MemoryModelError):
            MemorySpec("t", num_channels=0, random_tx_rate_mhz=1, sequential_gbs=1)
        with pytest.raises(MemoryModelError):
            MemorySpec("t", num_channels=1, random_tx_rate_mhz=0, sequential_gbs=1)
        with pytest.raises(MemoryModelError):
            HBM2_U55C.burst_cost_tx(0)
        with pytest.raises(MemoryModelError):
            HBM2_U55C.channel_tx_per_core_cycle(0)


class TestCatalog:
    def test_channel_counts_match_table3(self):
        assert HBM2_U55C.num_channels == 32
        assert HBM2_U50.num_channels == 32
        assert DDR4_U250.num_channels == 4
        assert DDR4_VCK5000.num_channels == 4

    def test_sequential_bandwidths_match_table3(self):
        assert HBM2_U55C.sequential_gbs == 460.0
        assert HBM2_U50.sequential_gbs == 316.0
        assert DDR4_U250.sequential_gbs == 77.0
        assert DDR4_VCK5000.sequential_gbs == 102.0

    def test_hbm_ordering(self):
        # U55C is the faster HBM stack.
        assert HBM2_U55C.random_tx_rate_mhz > HBM2_U50.random_tx_rate_mhz
