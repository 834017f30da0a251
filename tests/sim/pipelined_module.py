"""The kernel tests' module double: a fixed-latency, II=1 stage.

No machine module derives from it; the kernel, FIFO and tracer tests use
it as the smallest module that exercises every counter.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import SimulationError
from repro.sim.fifo import StreamFifo
from repro.sim.module import Module


class PipelinedModule(Module):
    """Fixed-latency, II=1 pipeline stage between two stream FIFOs.

    Accepts one item per cycle from ``input_fifo`` (when internal pipeline
    registers have room), transforms it with :meth:`process` after
    ``latency`` cycles, and pushes the result to ``output_fifo`` (stalling
    on backpressure).  ``process`` may return ``None`` to drop the item
    (e.g. a filter) — the stage still counts it as processed.
    """

    def __init__(
        self,
        name: str,
        input_fifo: StreamFifo,
        output_fifo: StreamFifo,
        latency: int = 1,
    ) -> None:
        super().__init__(name)
        if latency < 1:
            raise SimulationError(f"latency must be >= 1, got {latency}")
        self.input_fifo = input_fifo
        self.output_fifo = output_fifo
        self.latency = latency
        self._pipe: deque[tuple[int, Any]] = deque()  # (ready_cycle, item)

    def process(self, item: Any, cycle: int) -> Any:
        """Transform one item; identity by default."""
        return item

    def tick(self, cycle: int) -> None:
        progressed = False
        # Retire: oldest item leaves if ready and downstream has space.
        if self._pipe and self._pipe[0][0] <= cycle:
            if not self.output_fifo.is_full():
                _, item = self._pipe.popleft()
                result = self.process(item, cycle)
                if result is not None:
                    self.output_fifo.push(result)
                self.stats.items_processed += 1
                progressed = True
            else:
                self.stats.blocked_cycles += 1
                return
        # Accept: one new item per cycle while registers have room.
        if len(self._pipe) < self.latency and not self.input_fifo.is_empty():
            self._pipe.append((cycle + self.latency, self.input_fifo.pop()))
            progressed = True
        if progressed:
            self.stats.active_cycles += 1
        elif self.input_fifo.is_empty() and not self._pipe:
            self.stats.starved_cycles += 1
        else:
            self.stats.blocked_cycles += 1

    def busy(self) -> bool:
        return bool(self._pipe)
