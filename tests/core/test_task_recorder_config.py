"""Unit tests for tasks, the walk recorder, and configuration."""

from dataclasses import fields

import pytest

from repro.core import (
    RidgeWalkerConfig,
    Task,
    TaskStatus,
    WalkRecorder,
    theorem_fifo_depth,
)
from repro.core.config import SYNC_OUTSTANDING
from repro.errors import SchedulerError, SimulationError
from repro.memory.spec import DDR4_U250, HBM2_U55C
from repro.sampling import QueryStream


class TestTask:
    def test_defaults(self):
        t = Task(query_id=1, vertex=5, stream=QueryStream(0))
        assert t.is_running()
        assert not t.is_terminal()
        assert t.needs_memory()

    def test_terminal_statuses(self):
        for status in (
            TaskStatus.TERMINATED_DANGLING,
            TaskStatus.TERMINATED_FILTERED,
            TaskStatus.TERMINATED_PROBABILISTIC,
            TaskStatus.TERMINATED_LENGTH,
        ):
            t = Task(query_id=0, vertex=0, stream=QueryStream(0), status=status)
            assert t.is_terminal()
            assert not t.needs_memory()

    def test_ghost_is_not_terminal_but_uses_memory(self):
        t = Task(query_id=0, vertex=0, stream=QueryStream(0), status=TaskStatus.GHOST)
        assert not t.is_terminal()
        assert t.is_ghost()
        assert t.needs_memory()  # dead slots still burn bandwidth

    def test_reset_hop_state(self):
        t = Task(query_id=0, vertex=0, stream=QueryStream(0), degree=5, column_address=10,
                 sample_index=2, column_burst_words=4)
        t.reset_hop_state()
        assert t.degree == -1
        assert t.column_address == -1
        assert t.sample_index == -1
        assert t.column_burst_words == 1


class TestWalkRecorder:
    def test_round_trip(self):
        r = WalkRecorder()
        r.start_query(0, 5)
        r.record_hop(0, 6)
        r.record_hop(0, 7)
        r.finish_query(0)
        results = r.to_results([0])
        assert results.path_of(0).tolist() == [5, 6, 7]
        assert results.total_steps == 2

    def test_out_of_order_queries(self):
        r = WalkRecorder()
        r.start_query(1, 10)
        r.start_query(0, 20)
        r.record_hop(1, 11)
        r.finish_query(1)
        r.finish_query(0)
        results = r.to_results([1, 0])
        assert results.path_of(0).tolist() == [10, 11]
        assert results.path_of(1).tolist() == [20]

    def test_double_start_rejected(self):
        r = WalkRecorder()
        r.start_query(0, 1)
        with pytest.raises(SimulationError, match="twice"):
            r.start_query(0, 2)

    def test_hop_for_unknown_query_rejected(self):
        with pytest.raises(SimulationError, match="unknown"):
            WalkRecorder().record_hop(3, 1)

    def test_hop_after_finish_rejected(self):
        r = WalkRecorder()
        r.start_query(0, 1)
        r.finish_query(0)
        with pytest.raises(SimulationError, match="after"):
            r.record_hop(0, 2)

    def test_double_finish_rejected(self):
        r = WalkRecorder()
        r.start_query(0, 1)
        r.finish_query(0)
        with pytest.raises(SimulationError, match="twice"):
            r.finish_query(0)

    def test_results_require_all_done(self):
        r = WalkRecorder()
        r.start_query(0, 1)
        with pytest.raises(SimulationError, match="unfinished"):
            r.to_results([0])


class TestTheoremDepth:
    def test_formula(self):
        # D = 1 + 4*log2(N) per pipeline (Section VI-D).
        assert theorem_fifo_depth(1) == 1
        assert theorem_fifo_depth(2) == 5
        assert theorem_fifo_depth(4) == 9
        assert theorem_fifo_depth(8) == 13
        assert theorem_fifo_depth(16) == 17
        assert theorem_fifo_depth(32) == 21

    def test_validation(self):
        with pytest.raises(SchedulerError):
            theorem_fifo_depth(0)


class TestConfig:
    def test_defaults_are_paper_values(self):
        cfg = RidgeWalkerConfig(num_pipelines=16, memory=HBM2_U55C)
        assert cfg.core_mhz == 320.0
        assert cfg.engine_outstanding == 128
        assert cfg.effective_fifo_depth == 17

    def test_power_of_two_pipelines_required(self):
        with pytest.raises(SchedulerError, match="power of two"):
            RidgeWalkerConfig(num_pipelines=3)

    def test_channel_budget_enforced(self):
        with pytest.raises(SchedulerError, match="channels"):
            RidgeWalkerConfig(num_pipelines=4, memory=DDR4_U250)

    def test_ddr4_supports_two_pipelines(self):
        cfg = RidgeWalkerConfig(num_pipelines=2, memory=DDR4_U250)
        assert cfg.memory.num_channels == 2 * cfg.num_pipelines

    def test_sync_switch_changes_outstanding(self):
        sync = RidgeWalkerConfig(num_pipelines=2, memory=DDR4_U250, async_memory=False)
        assert sync.effective_outstanding == SYNC_OUTSTANDING == 4
        full = RidgeWalkerConfig(num_pipelines=2, memory=DDR4_U250)
        assert full.effective_outstanding == 128

    def test_bulk_requires_static(self):
        with pytest.raises(SchedulerError, match="static"):
            RidgeWalkerConfig(num_pipelines=2, memory=DDR4_U250, bulk_synchronous=True)

    def test_explicit_fifo_depth_override(self):
        cfg = RidgeWalkerConfig(num_pipelines=2, memory=DDR4_U250, pipeline_fifo_depth=3)
        assert cfg.effective_fifo_depth == 3

    def test_inflight_limit_tracks_recirc_capacity(self):
        cfg = RidgeWalkerConfig(num_pipelines=2, memory=DDR4_U250, recirculation_depth=100)
        assert cfg.safe_inflight_limit() == int(2 * 100 * 0.8)

    def test_peak_tx_per_cycle(self):
        cfg = RidgeWalkerConfig(num_pipelines=2, memory=DDR4_U250)
        assert cfg.peak_random_tx_per_cycle() == pytest.approx(2 * 2 * 160 / 320)

    def test_the_nine_fields(self):
        assert [f.name for f in fields(RidgeWalkerConfig)] == [
            "num_pipelines", "core_mhz", "memory", "dynamic_scheduling", "async_memory",
            "engine_outstanding", "bulk_synchronous", "pipeline_fifo_depth",
            "recirculation_depth",
        ]
