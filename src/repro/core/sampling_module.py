"""The Sampling module of one asynchronous pipeline (Figure 4a, step 5).

Sampling sits between Row Access and Column Access.  It consumes one task
per cycle in the best case (uniform/alias sampling: the draw itself never
stalls, as a pipelined hardware RNG delivers a number per cycle), but
data-dependent samplers occupy the stage longer:

* **rejection sampling** (Node2Vec unweighted) loops until acceptance —
  one cycle per proposal, the "rejection retries" inner loop of
  Section VI-A's problem statement;
* **reservoir sampling** (Node2Vec weighted, MetaPath) streams the whole
  neighbor list through the stage one 512-bit beat per cycle, and prices
  the scan as a sequential burst on the column channel.

Every row decides through the sampler's one ``draw`` — the call the
reference engine's loop makes — on the degree Row Access decoded and the
task's own query stream (``task.stream``), so a walk takes the path the
software engines give it, whichever pipeline serves each hop.  The stage
prices the decision from the draw's own counters: the column burst is
``min(max(1, reads), MAX_SCAN_BURST_WORDS)`` and the occupancy
``max(1, proposals)`` — or, for the one row that scans
(:class:`~repro.sampling.reservoir.ReservoirSampler`), the scanned words
at :data:`SCAN_WORDS_PER_CYCLE` a cycle.
"""

from __future__ import annotations

from repro.core.task import Task, TaskStatus
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.sampling.base import Sampler
from repro.sampling.reservoir import ReservoirSampler
from repro.sim.fifo import StreamFifo
from repro.sim.module import Module
from repro.walks.base import WalkSpec

#: Cap on the burst length charged for one sampling-driven scan, so one
#: mega-hub vertex cannot stall a channel for thousands of cycles (the
#: hardware would tile such scans; 64 words = one 512B tile).
MAX_SCAN_BURST_WORDS = 64

#: 64-bit neighbor words one 512-bit AXI beat delivers per cycle — the
#: reservoir scanner consumes a full beat per cycle, not one neighbor.
SCAN_WORDS_PER_CYCLE = 8


class SamplingModule(Module):
    """One pipeline's sampling stage with data-dependent occupancy."""

    def __init__(
        self,
        name: str,
        input_fifo: StreamFifo,
        output_fifo: StreamFifo,
        graph: CSRGraph,
        spec: WalkSpec,
        sampler: Sampler,
    ) -> None:
        super().__init__(name)
        self.input_fifo = input_fifo
        self.output_fifo = output_fifo
        self._graph = graph
        self._admissible_type = spec.admissible_type
        self._sampler = sampler
        self._needs_prev_vertex = spec.needs_prev_vertex
        self._scans = isinstance(sampler, ReservoirSampler)
        self._current: Task | None = None
        self._ready_at = 0
        self.samples_taken = 0

    def tick(self, cycle: int) -> None:
        progressed = False
        # Retire the in-service task once its occupancy elapsed.
        if self._current is not None and cycle >= self._ready_at:
            if self.output_fifo.space:
                self.output_fifo.push(self._current)
                self._current = None
                self.stats.items_processed += 1
                progressed = True
            else:
                self.stats.blocked_cycles += 1
                return
        # Accept and decide the next task.
        if self._current is None and self.input_fifo.ready:
            task = self.input_fifo.pop()
            service = 1
            if task.is_running():
                service = self._decide(task)
            self._current = task
            self._ready_at = cycle + service
            progressed = True
        if progressed or self._current is not None:
            self.stats.active_cycles += 1
        else:
            self.stats.starved_cycles += 1

    def _decide(self, task: Task) -> int:
        """Run the sampler on a live task; returns stage occupancy."""
        if task.degree <= 0:
            raise SimulationError(
                f"running task for query {task.query_id} reached sampling with "
                f"degree {task.degree}; Row Access must terminate dangling walks"
            )
        self.samples_taken += 1
        index, proposals, reads = self._sampler.draw(
            self._graph, task.vertex, task.degree,
            task.prev_vertex if self._needs_prev_vertex else -1,
            self._admissible_type(task.step), task.stream)
        if index < 0:
            task.status = TaskStatus.TERMINATED_FILTERED
            return 1
        task.sample_index = index
        # The burst is min(max(1, reads), MAX_SCAN_BURST_WORDS): scans and
        # adjacency probes are tiled at the cap.  A scan holds the stage one
        # 512-bit beat per cycle, any other decision max(1, proposals)
        # cycles.  (Comparisons, not min/max calls: this runs every hop.)
        words = reads if reads < MAX_SCAN_BURST_WORDS else MAX_SCAN_BURST_WORDS
        task.column_burst_words = words if words > 1 else 1
        if self._scans:
            return max(1, -(-words // SCAN_WORDS_PER_CYCLE))
        return proposals if proposals > 1 else 1

    def busy(self) -> bool:
        return self._current is not None
