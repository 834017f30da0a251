"""Module base class for the cycle-level simulator.

A :class:`Module` is anything the kernel ticks once per cycle — the
paper's modules each process one task per cycle (Section V-A).  Its
utilization counters distinguish the three states the paper's analysis
cares about:

* **active** — the module advanced work this cycle;
* **starved** — no input available (a *pipeline bubble*: this counter is
  the numerator of the bubble ratios quoted against LightRW);
* **blocked** — input ready but downstream backpressure stalled it.

:class:`~repro.sim.stats.RunMetrics` turns the summed counters into the
run's bubble ratio.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass


@dataclass
class ModuleStats:
    """Per-module utilization counters."""

    active_cycles: int = 0
    starved_cycles: int = 0
    blocked_cycles: int = 0
    items_processed: int = 0

    def total_cycles(self) -> int:
        return self.active_cycles + self.starved_cycles + self.blocked_cycles


class Module(ABC):
    """Anything the simulation kernel ticks once per cycle."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = ModuleStats()

    @abstractmethod
    def tick(self, cycle: int) -> None:
        """Advance one cycle."""

    def busy(self) -> bool:
        """Whether the module still holds in-flight work (for drain
        detection); stateless modules return False."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"
