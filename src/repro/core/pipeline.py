"""One asynchronous pipeline: Row Access -> Sampling -> Column Access.

Assembles the three modules of Figure 4a around their FIFOs and the two
access engines, with the routing and response callbacks that implement
the degree-aware memory layout (Figure 4b):

* **Row Access** targets the row channel owning the task's vertex; its
  response decodes the RP entry (degree, column channel, column address)
  into the task and terminates walks that reached a dangling vertex;
* **Sampling** draws the neighbor index (see
  :mod:`repro.core.sampling_module`);
* **Column Access** targets the column channel from the RP entry, and its
  response advances the walk: record the hop, bump the step counter,
  thread ``prev_vertex`` for second-order walks, and apply length or
  probabilistic (PPR) termination.
"""

from __future__ import annotations

from repro.core.access_engine import AccessEngine
from repro.core.recorder import WalkRecorder
from repro.core.sampling_module import SamplingModule
from repro.core.task import Task, TaskStatus
from repro.graph.csr import CSRGraph
from repro.memory.layout import GraphMemoryLayout
from repro.memory.system import ChannelGroup, MemorySystem
from repro.sampling.base import RandomSource, Sampler
from repro.sim.fifo import StreamFifo
from repro.sim.kernel import SimulationKernel
from repro.sim.module import Module
from repro.walks.base import WalkSpec

#: Depth of the intra-pipeline FIFOs ("shallow FIFOs within the
#: AXI-Stream protocol", Section IV-B).
_STAGE_FIFO_DEPTH = 4

#: Depth of the engines' response FIFOs (return-path buffering).
_RESPONSE_FIFO_DEPTH = 8


class AsyncPipeline:
    """One of the N asynchronous pipelines, fully wired."""

    def __init__(
        self,
        kernel: SimulationKernel,
        index: int,
        graph: CSRGraph,
        layout: GraphMemoryLayout,
        memory: MemorySystem,
        spec: WalkSpec,
        sampler: Sampler,
        sampling_random: RandomSource,
        termination_random: RandomSource,
        recorder: WalkRecorder,
        input_fifo: StreamFifo,
        output_fifo: StreamFifo,
        outstanding_capacity: int,
    ) -> None:
        self.index = index
        hop = _HopLogic(index, graph, layout, spec, termination_random, recorder)

        name = f"pipe{index}"
        sp_in = kernel.make_fifo(_STAGE_FIFO_DEPTH, f"{name}.sp_in")
        ca_in = kernel.make_fifo(_STAGE_FIFO_DEPTH, f"{name}.ca_in")
        ra_resp = kernel.make_fifo(_RESPONSE_FIFO_DEPTH, f"{name}.ra_resp")
        ca_resp = kernel.make_fifo(_RESPONSE_FIFO_DEPTH, f"{name}.ca_resp")

        self.row_access = AccessEngine(
            name=f"{name}.ra",
            input_fifo=input_fifo,
            output_fifo=sp_in,
            response_fifo=ra_resp,
            memory=memory,
            route=hop.route_row,
            on_response=hop.on_row_response,
            outstanding_capacity=outstanding_capacity,
        )
        self.sampling = SamplingModule(
            name=f"{name}.sp",
            input_fifo=sp_in,
            output_fifo=ca_in,
            graph=graph,
            spec=spec,
            sampler=sampler,
            random_source=sampling_random,
        )
        self.column_access = AccessEngine(
            name=f"{name}.ca",
            input_fifo=ca_in,
            output_fifo=output_fifo,
            response_fifo=ca_resp,
            memory=memory,
            route=hop.route_column,
            on_response=hop.on_column_response,
            outstanding_capacity=outstanding_capacity,
        )
        kernel.add_modules([self.row_access, self.sampling, self.column_access])

    def modules(self) -> list[Module]:
        return [self.row_access, self.sampling, self.column_access]

    def compute_stats(self):
        """The sampling stage's stats — the pipeline-utilization signal
        the bubble-ratio metric is computed from."""
        return self.sampling.stats


class _HopLogic:
    """What the two access engines of one pipeline call back into.

    It holds no module.  Were these bound methods of the pipeline, the
    loop engine -> callback -> pipeline -> engine would keep a finished
    machine (memory system, recorder, sampler tables) alive until the
    cyclic collector's next full pass.
    """

    def __init__(
        self,
        index: int,
        graph: CSRGraph,
        layout: GraphMemoryLayout,
        spec: WalkSpec,
        termination_random: RandomSource,
        recorder: WalkRecorder,
    ) -> None:
        self._graph = graph
        self._layout = layout
        self._spec = spec
        self._termination_random = termination_random
        self._recorder = recorder
        # Row Access routes and decodes through per-vertex tables.
        self._row_channel_of = layout.row_channel_table(
            home_channel=index % layout.num_row_channels
        )
        self._rp_entry_words = layout.rp_entry_words()
        self._degree_of, self._column_channel_of, self._column_address_of = (
            layout.row_entries
        )

    # ------------------------------------------------------------------
    # Row Access callbacks
    # ------------------------------------------------------------------
    def route_row(self, task: Task):
        # Replicated hot entries are served from this pipeline's home
        # channel; everything else from its id-partitioned owner.
        return ChannelGroup.ROW, self._row_channel_of[task.vertex], self._rp_entry_words

    def on_row_response(self, task: Task, cycle: int) -> None:
        vertex = task.vertex
        task.degree = degree = self._degree_of[vertex]
        task.column_channel = self._column_channel_of[vertex]
        task.column_address = self._column_address_of[vertex]
        if task.is_ghost():
            return  # dead slot: the fetch happened, nothing to decode
        if degree == 0:
            # Figure 1b case II: no outgoing edges, the walk ends here.
            task.status = TaskStatus.TERMINATED_DANGLING

    # ------------------------------------------------------------------
    # Column Access callbacks
    # ------------------------------------------------------------------
    def route_column(self, task: Task):
        if task.is_ghost():
            # Dead slot: the schedule still spends a column transaction.
            channel = task.query_id % self._layout.num_column_channels
            return ChannelGroup.COLUMN, channel, 1
        # Element interleaving: the sampled element's channel, not the
        # list-head channel — hub lists span all channels (Figure 4b).
        channel = self._layout.column_channel_of(task.column_address + task.sample_index)
        return ChannelGroup.COLUMN, channel, task.column_burst_words

    def on_column_response(self, task: Task, cycle: int) -> None:
        if task.is_ghost():
            return  # demux advances the ghost's slot counter
        next_vertex = int(self._graph.col[task.column_address + task.sample_index])
        self._recorder.record_hop(task.query_id, next_vertex)
        task.prev_vertex = task.vertex
        task.vertex = next_vertex
        task.step += 1
        if task.step >= self._spec.max_length:
            task.status = TaskStatus.TERMINATED_LENGTH
        elif self._spec.terminates_probabilistically(task.step - 1, self._termination_random):
            task.status = TaskStatus.TERMINATED_PROBABILISTIC
