"""Unit tests for the Theorem VI.1 delayed-feedback simulation (Section VI)."""

import pytest

from repro.core import theorem_fifo_depth
from repro.errors import SchedulerError
from repro.queueing import depth_sweep, simulate_delayed_feedback


class TestDelayedFeedbackSimulation:
    def test_no_delay_no_bubbles(self):
        result = simulate_delayed_feedback(
            num_servers=8, fifo_depth=8, feedback_delay=0, cycles=3000, seed=1
        )
        assert result.bubble_ratio < 0.02

    def test_theorem_depth_beats_shallow(self):
        shallow = simulate_delayed_feedback(
            num_servers=16, fifo_depth=1, feedback_delay=16, cycles=5000, seed=2
        )
        deep = simulate_delayed_feedback(
            num_servers=16,
            fifo_depth=theorem_fifo_depth(16),
            feedback_delay=16,
            cycles=5000,
            seed=2,
        )
        assert deep.bubble_ratio < shallow.bubble_ratio / 3

    def test_served_counts_work(self):
        result = simulate_delayed_feedback(
            num_servers=4, fifo_depth=8, feedback_delay=4, cycles=2000, seed=3
        )
        assert result.served > 0
        assert result.server_cycles > 0

    def test_a_small_shape_is_pinned(self):
        """Exact counts: the dispatcher breaks ties in believed space by
        server index, so they are equal on every host (CI reruns this at
        baseline SIMD dispatch)."""
        result = simulate_delayed_feedback(
            num_servers=4, fifo_depth=4, feedback_delay=4, cycles=400, seed=0
        )
        assert (result.served, result.bubble_cycles, result.server_cycles) == (996, 99, 1088)

    def test_depth_sweep_monotone_trend(self):
        sweep = depth_sweep(
            num_servers=16, feedback_delay=16, depths=[1, 17, 34], cycles=5000, seed=4
        )
        assert sweep[17] < sweep[1]
        assert sweep[34] <= sweep[17] * 1.5  # no regression when deeper

    def test_validation(self):
        with pytest.raises(SchedulerError):
            simulate_delayed_feedback(0, 1, 1)
        with pytest.raises(SchedulerError):
            simulate_delayed_feedback(1, 0, 1)
        with pytest.raises(SchedulerError):
            simulate_delayed_feedback(1, 1, -1)
        with pytest.raises(SchedulerError):
            simulate_delayed_feedback(1, 1, 1, mu=8.0, burst=2)
