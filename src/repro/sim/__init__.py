"""Simulation kernel: two-phase synchronous modules, FIFOs, metrics."""

from repro.sim.fifo import StreamFifo
from repro.sim.kernel import SimulationKernel
from repro.sim.module import Module, ModuleStats
from repro.sim.stats import RunMetrics
from repro.sim.trace import (
    TraceSeries,
    UtilizationTracer,
    render_dashboard,
    render_timeline,
)

__all__ = [
    "Module",
    "ModuleStats",
    "RunMetrics",
    "SimulationKernel",
    "StreamFifo",
    "TraceSeries",
    "UtilizationTracer",
    "render_dashboard",
    "render_timeline",
]
