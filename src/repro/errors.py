"""Exception hierarchy for the RidgeWalker reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base class at the API boundary.  Subclasses are grouped by subsystem; they
carry plain messages and, where useful, the offending values, because the
simulator surfaces these to benchmark harnesses that want to print context.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GraphError(ReproError):
    """Invalid graph structure or construction parameters."""


class GraphFormatError(GraphError):
    """A serialized graph could not be parsed or failed validation."""


class DynamicGraphError(GraphError):
    """An invalid streamed update was applied to a mutable graph."""


class SamplingError(ReproError):
    """A sampler was misconfigured or asked to sample from nothing."""


class WalkConfigError(ReproError):
    """A walk specification is inconsistent (e.g. negative length)."""


class MemoryModelError(ReproError):
    """Memory subsystem misconfiguration (channels, timing, capacity)."""


class SimulationError(ReproError):
    """The simulation kernel detected an inconsistent state."""


class DeadlockError(SimulationError):
    """No module made progress while work remained in flight."""

    def __init__(self, cycle: int, in_flight: int, detail: str = "") -> None:
        self.cycle = cycle
        self.in_flight = in_flight
        message = f"simulation deadlocked at cycle {cycle} with {in_flight} tasks in flight"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class SchedulerError(ReproError):
    """Zero-bubble scheduler misconfiguration (port counts, depths)."""


class ResourceModelError(ReproError):
    """FPGA resource estimation was asked about an unknown device/kernel."""


class BenchmarkError(ReproError):
    """An experiment harness was invoked with an unknown id or bad config."""


class ObservabilityError(ReproError):
    """The telemetry layer (tracer, metrics registry, exporter) was misused."""


class ServeError(ReproError):
    """The walk-serving layer was misconfigured or used while stopped."""


class ServeOverloadError(ServeError):
    """A request was shed because the service hit its admission high-water.

    Carries the occupancy the gate observed so callers (and the open-loop
    benchmark) can report how far past capacity the offered load was.
    """

    def __init__(self, occupancy: int, high_water: int) -> None:
        self.occupancy = occupancy
        self.high_water = high_water
        super().__init__(
            f"request shed: {occupancy} requests outstanding >= "
            f"high-water mark {high_water}"
        )
