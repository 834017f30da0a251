"""The Sampling module of one asynchronous pipeline (Figure 4a, step 5).

Sampling sits between Row Access and Column Access.  It consumes one task
per cycle in the best case (uniform/alias sampling: the paired ThundeRiNG
stream delivers pipelined random numbers, so the draw itself never
stalls), but data-dependent samplers occupy the stage longer:

* **rejection sampling** (Node2Vec unweighted) loops until acceptance —
  one cycle per proposal, the "rejection retries" inner loop of
  Section VI-A's problem statement;
* **reservoir sampling** (Node2Vec weighted, MetaPath) streams the whole
  neighbor list through the stage at one neighbor per cycle, and prices
  the scan as a sequential burst on the column channel.

The *semantic* decision is made by the exact same sampler objects the
reference engine uses (statistical equivalence by construction); only the
*timing* comes from the outcome's cost counters.
"""

from __future__ import annotations

from repro.core.task import Task, TaskStatus
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.sampling.base import RandomSource, SampleOutcome, Sampler, StepContext
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


def sampling_service_cycles(sampler: Sampler, outcome: SampleOutcome, degree: int) -> int:
    """Stage occupancy in cycles for one sampling decision."""
    if sampler.name in ("uniform", "alias"):
        return 1
    if sampler.name == "rejection":
        return max(1, outcome.proposals)
    # reservoir / inverse-transform: scan the list one 512-bit beat per
    # cycle, tiled at the burst cap.
    words = min(degree, MAX_SCAN_BURST_WORDS)
    return max(1, (words + SCAN_WORDS_PER_CYCLE - 1) // SCAN_WORDS_PER_CYCLE)


def column_burst_words(sampler: Sampler, outcome: SampleOutcome, degree: int) -> int:
    """Column-channel burst length charged for this hop's data movement."""
    if sampler.name == "uniform":
        return 1
    if sampler.name == "alias":
        return 2  # alias slot + neighbor, fetched in one burst
    if sampler.name == "rejection":
        # Each proposal reads one candidate; adjacency probes are bounded
        # scans of the previous vertex's list, tiled like reservoir scans.
        return min(max(1, outcome.neighbor_reads), MAX_SCAN_BURST_WORDS)
    # reservoir-style scans read the whole list once.
    return min(max(1, degree), MAX_SCAN_BURST_WORDS)


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
        random_source: RandomSource,
    ) -> None:
        super().__init__(name)
        self.input_fifo = input_fifo
        self.output_fifo = output_fifo
        self._graph = graph
        self._spec = spec
        self._sampler = sampler
        self._random = random_source
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
        context = StepContext(
            vertex=task.vertex,
            prev_vertex=(
                task.prev_vertex
                if self._spec.needs_prev_vertex and task.prev_vertex >= 0
                else None
            ),
            admissible_type=self._spec.admissible_type(task.step),
        )
        outcome = self._sampler.sample(self._graph, context, self._random)
        self.samples_taken += 1
        if outcome.terminated:
            task.status = TaskStatus.TERMINATED_FILTERED
            return 1
        task.sample_index = outcome.index
        task.column_burst_words = column_burst_words(self._sampler, outcome, task.degree)
        return sampling_service_cycles(self._sampler, outcome, task.degree)

    def busy(self) -> bool:
        return self._current is not None
