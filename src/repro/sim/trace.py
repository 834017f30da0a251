"""Utilization tracing: cycle-windowed occupancy and activity timelines.

The paper's analysis leans on cycle-level visibility ("continuously
monitors pipeline utilization at cycle-level granularity") — this module
gives the simulator the same visibility: samplers attached to the kernel
record per-window module activity and FIFO occupancy, and an ASCII
renderer turns them into the kind of timeline Figure 3/5 sketch.

Usage::

    tracer = UtilizationTracer(window=64)
    series = tracer.watch_module(machine.pipelines[0].sampling)
    tracer.watch_fifo(some_fifo)
    ... kernel.step() loop calling tracer.sample(kernel.cycle) ...
    print(render_timeline(series, width=60))
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim.fifo import StreamFifo
from repro.sim.module import Module

#: Glyph ramp for timeline rendering, idle -> saturated.
_RAMP = " .:-=+*#%@"


@dataclass
class TraceSeries:
    """One traced signal: per-window values in [0, 1]."""

    name: str
    window: int
    values: list[float] = field(default_factory=list)

    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0


class UtilizationTracer:
    """Samples watched modules and FIFOs every ``window`` cycles."""

    def __init__(self, window: int = 64) -> None:
        if window < 1:
            raise SimulationError(f"window must be >= 1, got {window}")
        self.window = window
        self._modules: list[tuple[Module, TraceSeries, int]] = []
        self._fifos: list[tuple[StreamFifo, TraceSeries]] = []
        self._last_sample_cycle = 0

    def watch_module(self, module: Module) -> TraceSeries:
        """Trace a module's activity ratio per window."""
        series = TraceSeries(name=module.name, window=self.window)
        self._modules.append((module, series, module.stats.active_cycles))
        return series

    def watch_fifo(self, fifo: StreamFifo) -> TraceSeries:
        """Trace a FIFO's occupancy fraction per window."""
        series = TraceSeries(name=fifo.name, window=self.window)
        self._fifos.append((fifo, series))
        return series

    def sample(self, cycle: int) -> bool:
        """Record one window if due; returns whether a sample was taken."""
        if cycle - self._last_sample_cycle < self.window:
            return False
        self._last_sample_cycle = cycle
        for i, (module, series, last_active) in enumerate(self._modules):
            active = module.stats.active_cycles
            series.values.append(min(1.0, (active - last_active) / self.window))
            self._modules[i] = (module, series, active)
        for fifo, series in self._fifos:
            series.values.append(min(1.0, fifo.occupancy() / fifo.capacity))
        return True

    def all_series(self) -> list[TraceSeries]:
        return [s for _, s, _ in self._modules] + [s for _, s in self._fifos]


def render_timeline(series: TraceSeries, width: int = 64) -> str:
    """Render one series as a compact ASCII activity strip."""
    if not series.values:
        return f"{series.name}: (no samples)"
    values = _resample(series.values, width)
    glyphs = "".join(_RAMP[min(len(_RAMP) - 1, int(v * (len(_RAMP) - 1) + 0.5))] for v in values)
    return f"{series.name:24s} |{glyphs}| mean={series.mean() * 100:4.0f}%"


def render_dashboard(tracer: UtilizationTracer, width: int = 64) -> str:
    """Render every traced series, one strip per line."""
    lines = [render_timeline(s, width=width) for s in tracer.all_series()]
    return "\n".join(lines)


def _resample(values: list[float], width: int) -> list[float]:
    """Average-downsample (or repeat-upsample) to exactly ``width`` bins."""
    if width < 1:
        raise SimulationError("width must be >= 1")
    n = len(values)
    if n == width:
        return list(values)
    out = []
    for i in range(width):
        lo = int(i * n / width)
        hi = max(lo + 1, int((i + 1) * n / width))
        chunk = values[lo:hi]
        out.append(sum(chunk) / len(chunk))
    return out
