"""The RidgeWalker accelerator: top-level assembly and run loop.

Builds the full Figure 4a machine over the simulation kernel:

* a :class:`~repro.memory.system.MemorySystem` with one row and one
  column channel per pipeline (Section IV-A's channel assignment);
* N :class:`~repro.core.pipeline.AsyncPipeline` instances;
* the Zero-Bubble Scheduler (Figure 7a): a distribution tree for new
  queries, per-pipeline Mergers prioritizing recirculated (unfinished)
  tasks, and the N-to-N butterfly balancer in front of the Theorem VI.1
  sized pipeline FIFOs — or, under ``dynamic_scheduling=False``, a
  static query-to-pipeline binding with direct feedback;
* per-pipeline demux into recirculation vs the Query Writer.

``run()`` executes a query batch to completion and returns both the
walk results (statistically interchangeable with the reference engine's)
and the cycle-accurate :class:`~repro.sim.stats.RunMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.access_engine import ResponseRouter
from repro.core.config import RidgeWalkerConfig
from repro.core.endpoints import FlatBalancer, QueryLoader, QueryWriter, TaskDemux
from repro.core.interconnect import ButterflyBalancer, DistributionTree
from repro.core.pipeline import AsyncPipeline
from repro.core.recorder import WalkRecorder
from repro.core.scheduling import Merger
from repro.errors import SchedulerError, WalkConfigError
from repro.graph.csr import CSRGraph
from repro.memory.layout import GraphMemoryLayout
from repro.memory.system import MemorySystem
from repro.rng.thundering import ThunderRing
from repro.sampling.base import RingRandomSource
from repro.sim.kernel import SimulationKernel
from repro.sim.stats import RunMetrics
from repro.walks.base import Query, WalkResults, WalkSpec
from repro.walks.engine import check_start_vertices

#: Depth of loader-side distribution FIFOs.
_NEW_TASK_DEPTH = 4
#: Writer-side completion FIFOs.
_FINISH_DEPTH = 8


@dataclass
class RidgeWalkerRun:
    """Everything one accelerator run produced."""

    results: WalkResults
    metrics: RunMetrics
    recorder: WalkRecorder


class RidgeWalker:
    """The simulated accelerator, built per (graph, walk spec, config)."""

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        config: RidgeWalkerConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.config = config or RidgeWalkerConfig()
        self.seed = seed

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, queries: Sequence[Query]) -> RidgeWalkerRun:
        """Execute a query batch to completion on a fresh machine.

        Returns complete paths for every query — use this for statistical
        correctness work (the walk results are interchangeable with the
        reference engine's).
        """
        if not queries:
            raise WalkConfigError("query batch must not be empty")
        machine = _Machine(self.graph, self.spec, self.config, self.seed, queries)
        return machine.execute()

    def run_streaming(
        self,
        queries: Sequence[Query],
        warmup_cycles: int = 4000,
        measure_cycles: int = 12_000,
        tracer: "UtilizationTracer | None" = None,
    ) -> RunMetrics:
        """Measure steady-state throughput under a continuous query stream.

        Mirrors the paper's methodology (Section VIII-A4): the machine is
        warmed up, queries arrive as an endless stream (the given batch
        repeats with fresh ids), and throughput is measured over a fixed
        window, excluding ramp-up and drain.  Returns metrics only —
        paths of still-running queries are incomplete by construction.

        Pass a :class:`~repro.sim.trace.UtilizationTracer` to record
        per-window activity of every pipeline's sampling stage and
        scheduler FIFO (the cycle-level visibility Section VI's design
        is built around).
        """
        if not queries:
            raise WalkConfigError("query batch must not be empty")
        if warmup_cycles < 0 or measure_cycles < 1:
            raise WalkConfigError("invalid warmup/measure cycle counts")
        machine = _Machine(
            self.graph, self.spec, self.config, self.seed, queries, endless=True
        )
        if tracer is not None:
            machine.attach_tracer(tracer)
        return machine.execute_streaming(warmup_cycles, measure_cycles)


class _Machine:
    """One fully wired instance; single use (run once, read stats)."""

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        config: RidgeWalkerConfig,
        seed: int,
        queries: Sequence[Query],
        endless: bool = False,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.config = config
        self.queries = list(queries)
        self.endless = endless
        # The pipelines decode vertices through per-vertex tables, which
        # take any id the graph holds; only a start vertex comes from outside.
        check_start_vertices(graph, np.array([q.start_vertex for q in self.queries]))
        n = config.num_pipelines

        self.kernel = SimulationKernel(core_mhz=config.core_mhz)
        self.memory = self.kernel.add_memory(
            MemorySystem(
                spec=config.memory,
                core_mhz=config.core_mhz,
                num_row_channels=n,
                num_column_channels=n,
            )
        )
        self.layout = GraphMemoryLayout(
            graph,
            num_row_channels=n,
            num_column_channels=n,
            rp_entry_bits=spec.rp_entry_bits,
        )
        self.recorder = WalkRecorder()

        # ThundeRiNG streams: one per sampling module, one per column
        # engine (PPR termination draws), mirroring the per-module RNG
        # pairing of Section VII.
        self.ring = ThunderRing(num_streams=2 * n, seed=seed)
        sampler_proto = spec.make_sampler()
        sampler_proto.prepare(graph)

        # --- pipeline input/output plumbing -------------------------------
        depth = config.effective_fifo_depth
        pipe_in = [self.kernel.make_fifo(depth, f"sched.pipe_in{i}") for i in range(n)]
        pipe_out = [
            self.kernel.make_fifo(_NEW_TASK_DEPTH, f"pipe{i}.out") for i in range(n)
        ]
        recirc = [
            self.kernel.make_fifo(config.recirculation_depth, f"recirc{i}")
            for i in range(n)
        ]
        finished = [self.kernel.make_fifo(_FINISH_DEPTH, f"finished{i}") for i in range(n)]

        self.pipelines = [
            AsyncPipeline(
                kernel=self.kernel,
                index=i,
                graph=graph,
                layout=self.layout,
                memory=self.memory,
                spec=spec,
                sampler=sampler_proto,
                sampling_random=RingRandomSource(self.ring, i),
                termination_random=RingRandomSource(self.ring, n + i),
                recorder=self.recorder,
                input_fifo=pipe_in[i],
                output_fifo=pipe_out[i],
                outstanding_capacity=config.effective_outstanding,
            )
            for i in range(n)
        ]
        self.kernel.add_module(ResponseRouter("resp_router", self.memory))

        for i in range(n):
            self.kernel.add_module(
                TaskDemux(
                    f"demux{i}",
                    input_fifo=pipe_out[i],
                    recirculate_fifo=recirc[i],
                    finished_fifo=finished[i],
                    bulk_synchronous=config.bulk_synchronous,
                    max_length=spec.max_length,
                )
            )

        # --- scheduler -----------------------------------------------------
        if config.dynamic_scheduling:
            self._build_dynamic_scheduler(pipe_in, recirc)
        else:
            self._build_static_scheduler(pipe_in, recirc)

        self.writer = QueryWriter("writer", finished, self.recorder)
        self.kernel.add_module(self.writer)

    # ------------------------------------------------------------------
    # Scheduler variants
    # ------------------------------------------------------------------
    def _build_dynamic_scheduler(self, pipe_in, recirc) -> None:
        """Figure 7a: tree -> priority mergers -> butterfly balancer."""
        n = self.config.num_pipelines
        loader_out = self.kernel.make_fifo(_NEW_TASK_DEPTH, "loader.out")
        new_tasks = [
            self.kernel.make_fifo(_NEW_TASK_DEPTH, f"sched.new{i}") for i in range(n)
        ]
        merged = [
            self.kernel.make_fifo(_NEW_TASK_DEPTH, f"sched.merged{i}") for i in range(n)
        ]
        DistributionTree(self.kernel, "sched.tree", loader_out, new_tasks)
        for i in range(n):
            # Module (2): recirculated (unfinished) queries take priority.
            self.kernel.add_module(
                Merger(
                    f"sched.merge{i}",
                    in0=recirc[i],
                    in1=new_tasks[i],
                    output_fifo=merged[i],
                    priority_input=0,
                )
            )
        if self.config.scheduler_detail == "butterfly":
            ButterflyBalancer(self.kernel, "sched.balancer", merged, pipe_in)
        else:
            self.kernel.add_module(
                FlatBalancer(
                    "sched.balancer",
                    inputs=merged,
                    outputs=pipe_in,
                    latency=max(2, self.config.scheduler_latency_cycles // 2),
                )
            )
        self.loader = QueryLoader(
            "loader",
            queries=self.queries,
            outputs=[loader_out],
            recorder=self.recorder,
            max_inflight=self.config.safe_inflight_limit(),
            endless=self.endless,
        )
        self.kernel.add_module(self.loader)

    def _build_static_scheduler(self, pipe_in, recirc) -> None:
        """Static binding: query -> pipeline (id mod N), local feedback."""
        n = self.config.num_pipelines
        new_tasks = [
            self.kernel.make_fifo(_NEW_TASK_DEPTH, f"static.new{i}") for i in range(n)
        ]
        for i in range(n):
            self.kernel.add_module(
                Merger(
                    f"static.merge{i}",
                    in0=recirc[i],
                    in1=new_tasks[i],
                    output_fifo=pipe_in[i],
                    priority_input=0,
                )
            )
        batch = None
        if self.config.bulk_synchronous:
            # A LightRW-style design buffers a large query batch in BRAM;
            # half the admission limit keeps the batch comfortably inside
            # the loop while leaving the barrier's drain phase visible.
            batch = max(n, self.config.safe_inflight_limit() // 2)
        self.loader = QueryLoader(
            "loader",
            queries=self.queries,
            outputs=new_tasks,
            recorder=self.recorder,
            max_inflight=self.config.safe_inflight_limit(),
            static_binding=True,
            batch_size=batch,
            endless=self.endless,
        )
        self.kernel.add_module(self.loader)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self) -> RidgeWalkerRun:
        total = len(self.queries)

        def done() -> bool:
            return self.writer.completed >= total

        cycles = self.kernel.run_until(done)
        results = self.recorder.to_results()
        metrics = self._metrics(results.total_steps, max(1, cycles))
        return RidgeWalkerRun(results=results, metrics=metrics, recorder=self.recorder)

    def attach_tracer(self, tracer) -> None:
        """Watch every sampling stage and scheduler FIFO with ``tracer``."""
        self._tracer = tracer
        for pipeline in self.pipelines:
            tracer.watch_module(pipeline.sampling)
        for fifo in self.kernel.fifos:
            if fifo.name.startswith("sched.pipe_in"):
                tracer.watch_fifo(fifo)

    def execute_streaming(self, warmup_cycles: int, measure_cycles: int) -> RunMetrics:
        tracer = getattr(self, "_tracer", None)
        for _ in range(warmup_cycles):
            self.kernel.step()
        hops_before = self.recorder.total_hops
        words_before = self.memory.total_words_transferred()
        requests_before = self.memory.total_requests()
        starved_before = sum(p.compute_stats().starved_cycles for p in self.pipelines)
        total_before = sum(p.compute_stats().total_cycles() for p in self.pipelines)
        for _ in range(measure_cycles):
            self.kernel.step()
            if tracer is not None:
                tracer.sample(self.kernel.cycle)
        metrics = self._metrics(
            total_steps=self.recorder.total_hops - hops_before,
            cycles=measure_cycles,
        )
        metrics.random_transactions = self.memory.total_requests() - requests_before
        metrics.words_transferred = self.memory.total_words_transferred() - words_before
        metrics.bubble_cycles = (
            sum(p.compute_stats().starved_cycles for p in self.pipelines) - starved_before
        )
        metrics.pipeline_cycles = (
            sum(p.compute_stats().total_cycles() for p in self.pipelines) - total_before
        )
        return metrics

    def _metrics(self, total_steps: int, cycles: int) -> RunMetrics:
        return RunMetrics(
            total_steps=total_steps,
            cycles=max(1, cycles),
            core_mhz=self.config.core_mhz,
            random_transactions=self.memory.total_requests(),
            words_transferred=self.memory.total_words_transferred(),
            peak_random_tx_per_cycle=self.config.peak_random_tx_per_cycle(),
            bubble_cycles=sum(p.compute_stats().starved_cycles for p in self.pipelines),
            pipeline_cycles=sum(
                p.compute_stats().total_cycles() for p in self.pipelines
            ),
            extra={
                "ghost_laps": sum(
                    m.ghost_laps
                    for m in self.kernel.modules
                    if isinstance(m, TaskDemux)
                ),
                "num_pipelines": self.config.num_pipelines,
                "dynamic_scheduling": self.config.dynamic_scheduling,
                "async_memory": self.config.async_memory,
            },
        )


def run_ridgewalker(
    graph: CSRGraph,
    spec: WalkSpec,
    queries: Sequence[Query],
    config: RidgeWalkerConfig | None = None,
    seed: int = 0,
) -> RidgeWalkerRun:
    """One-call convenience wrapper: build, run, return results+metrics."""
    return RidgeWalker(graph, spec, config=config, seed=seed).run(queries)
