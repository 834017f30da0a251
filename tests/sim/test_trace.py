"""Unit tests for the utilization tracer and timeline rendering."""

import pytest

from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.errors import SimulationError
from repro.graph import cycle_graph, load_dataset
from repro.memory.spec import MemorySpec
from repro.sim import (
    SimulationKernel,
    TraceSeries,
    UtilizationTracer,
    render_dashboard,
    render_timeline,
)
from repro.walks import URWSpec, make_queries

from pipelined_module import PipelinedModule


class Identity(PipelinedModule):
    pass


class TestTracer:
    def test_module_activity_sampled(self):
        kernel = SimulationKernel()
        src = kernel.make_fifo(64, "src")
        dst = kernel.make_fifo(64, "dst")
        module = Identity("m", src, dst)
        kernel.add_module(module)
        tracer = UtilizationTracer(window=10)
        series = tracer.watch_module(module)
        for i in range(30):
            src.push(i)
        for _ in range(30):
            kernel.step()
            tracer.sample(kernel.cycle)
        assert len(series.values) == 3
        assert series.mean() > 0.5  # busy most of the time

    def test_idle_module_traces_zero(self):
        kernel = SimulationKernel()
        src = kernel.make_fifo(4, "src")
        dst = kernel.make_fifo(4, "dst")
        module = Identity("m", src, dst)
        kernel.add_module(module)
        tracer = UtilizationTracer(window=5)
        series = tracer.watch_module(module)
        for _ in range(20):
            kernel.step()
            tracer.sample(kernel.cycle)
        assert series.mean() == 0.0

    def test_fifo_occupancy_sampled(self):
        kernel = SimulationKernel()
        fifo = kernel.make_fifo(4, "f")
        tracer = UtilizationTracer(window=2)
        series = tracer.watch_fifo(fifo)
        fifo.push(1)
        fifo.push(2)
        fifo.commit()
        for _ in range(4):
            kernel.step()
            tracer.sample(kernel.cycle)
        assert max(series.values) == pytest.approx(0.5)

    def test_window_validation(self):
        with pytest.raises(SimulationError):
            UtilizationTracer(window=0)


class TestRendering:
    def test_render_resamples_to_width(self):
        series = TraceSeries(name="s", window=8, values=[0.0, 0.5, 1.0] * 10)
        text = render_timeline(series, width=12)
        assert "|" in text and "s" in text
        assert len(text.split("|")[1]) == 12

    def test_render_empty(self):
        assert "no samples" in render_timeline(TraceSeries("s", 8))

    def test_dashboard_lists_all(self):
        tracer = UtilizationTracer(window=4)
        kernel = SimulationKernel()
        tracer.watch_fifo(kernel.make_fifo(4, "a"))
        tracer.watch_fifo(kernel.make_fifo(4, "b"))
        for _ in range(8):
            kernel.step()
            tracer.sample(kernel.cycle)
        dashboard = render_dashboard(tracer)
        assert "a" in dashboard and "b" in dashboard


class TestAcceleratorIntegration:
    def test_streaming_with_tracer(self):
        memory = MemorySpec(
            "fast", num_channels=4, random_tx_rate_mhz=320, sequential_gbs=20,
            round_trip_cycles=8, max_outstanding=8,
        )
        g = load_dataset("AS", scale=0.05, seed=1)
        queries = make_queries(g, 64, seed=2)
        config = RidgeWalkerConfig(num_pipelines=2, memory=memory)
        tracer = UtilizationTracer(window=64)
        RidgeWalker(g, URWSpec(max_length=40), config, seed=3).run_streaming(
            queries, warmup_cycles=500, measure_cycles=2000, tracer=tracer
        )
        by_name = {s.name: s for s in tracer.all_series()}
        assert "pipe0.sp" in by_name and "pipe1.sp" in by_name
        assert any(n.startswith("sched.pipe_in") for n in by_name)
        assert by_name["pipe0.sp"].mean() > 0.1
