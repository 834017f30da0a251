"""Query Loader, Query Writer, task demux and the flat balancer.

These are the boundary modules of the accelerator (Figure 4a steps 1 and
the write-back path) plus two simulation conveniences:

* :class:`TaskDemux` splits a pipeline's Column Access output into the
  recirculation stream (unfinished queries, fed back to the scheduler)
  and the completion stream (to the Query Writer);
* :class:`FlatBalancer` is a functional stand-in for the butterfly
  balancer with identical interface, work-conserving availability
  routing and the same ``2*log2(N)``-cycle latency, used by large
  benchmark sweeps where simulating 128 butterfly units dominates
  wall-clock time.  Equivalence of delivered throughput is covered by
  the scheduler test suite.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.core.recorder import WalkRecorder
from repro.core.task import Task, TaskStatus
from repro.errors import SchedulerError
from repro.sim.fifo import StreamFifo
from repro.sim.module import Module
from repro.walks.base import Query


class QueryLoader(Module):
    """Streams queries into the scheduler, bounded by the in-flight cap.

    In bulk-synchronous mode (the Figure 11 baseline) the loader releases
    queries in batches and waits for the whole batch to drain, mimicking
    FastRW/LightRW's batched execution.
    """

    def __init__(
        self,
        name: str,
        queries: Sequence[Query],
        outputs: list[StreamFifo],
        recorder: WalkRecorder,
        max_inflight: int,
        static_binding: bool = False,
        batch_size: int | None = None,
        endless: bool = False,
    ) -> None:
        super().__init__(name)
        if not outputs:
            raise SchedulerError("loader needs at least one output")
        if max_inflight < 1:
            raise SchedulerError("max_inflight must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise SchedulerError("batch_size must be >= 1")
        self._queries = list(queries)
        self._outputs = outputs
        self._recorder = recorder
        self._max_inflight = max_inflight
        self._static = static_binding
        self._batch_size = batch_size
        self._endless = endless
        self._next = 0
        self.injected = 0

    def _inflight(self) -> int:
        return self._recorder.started - self._recorder.finished

    def _batch_open(self) -> bool:
        if self._batch_size is None:
            return True
        # A new batch opens only when everything injected so far finished.
        position_in_batch = self.injected % self._batch_size
        if position_in_batch != 0:
            return True
        return self._recorder.finished == self.injected

    def _peek_query(self) -> Query | None:
        """Next query to inject, wrapping with fresh ids when endless."""
        if self._next < len(self._queries):
            return self._queries[self._next]
        if not self._endless:
            return None
        base = self._queries[self._next % len(self._queries)]
        return Query(query_id=self._next, start_vertex=base.start_vertex)

    def tick(self, cycle: int) -> None:
        injected_this_cycle = 0
        # Up to one injection per output port per cycle.
        for port, fifo in enumerate(self._outputs):
            query = self._peek_query()
            if query is None:
                break
            if self._inflight() + injected_this_cycle >= self._max_inflight:
                break
            if not self._batch_open():
                break
            if self._static and port != query.query_id % len(self._outputs):
                continue
            if fifo.is_full():
                continue
            task = Task(query_id=query.query_id, vertex=query.start_vertex)
            self._recorder.start_query(query.query_id, query.start_vertex)
            fifo.push(task)
            self._next += 1
            self.injected += 1
            injected_this_cycle += 1
        if injected_this_cycle:
            self.stats.active_cycles += 1
            self.stats.items_processed += injected_this_cycle
        elif self.done():
            self.stats.starved_cycles += 1
        else:
            self.stats.blocked_cycles += 1

    def done(self) -> bool:
        """Whether every query has been injected (never, when endless)."""
        return not self._endless and self._next >= len(self._queries)


class QueryWriter(Module):
    """Collects finished queries from all pipelines (Figure 4a writer).

    Path contents were recorded hop-by-hop (the streaming-window write
    back overlaps execution, so it costs no simulated time); the writer's
    job is completion accounting and freeing the in-flight budget.
    """

    def __init__(self, name: str, inputs: list[StreamFifo], recorder: WalkRecorder) -> None:
        super().__init__(name)
        self._inputs = inputs
        self._recorder = recorder
        self.completed = 0

    def tick(self, cycle: int) -> None:
        drained = 0
        for fifo in self._inputs:
            if fifo.ready:
                task = fifo.pop()
                self._recorder.finish_query(task.query_id)
                self.completed += 1
                drained += 1
        if drained:
            self.stats.active_cycles += 1
            self.stats.items_processed += drained
        else:
            self.stats.starved_cycles += 1


class TaskDemux(Module):
    """Splits Column Access output into recirculation vs completion.

    In bulk-synchronous mode ("without early-termination handling",
    Figure 11 baseline) a query that dies before the full walk length
    keeps its reserved slots: the demux converts it into a *ghost* that
    recirculates — consuming one pipeline slot per remaining hop without
    touching memory — until the schedule would have retired it.  Those
    ghost laps are exactly the bubbles the zero-bubble scheduler removes.
    """

    def __init__(
        self,
        name: str,
        input_fifo: StreamFifo,
        recirculate_fifo: StreamFifo,
        finished_fifo: StreamFifo,
        bulk_synchronous: bool = False,
        max_length: int = 0,
    ) -> None:
        super().__init__(name)
        if bulk_synchronous and max_length < 1:
            raise SchedulerError("bulk_synchronous demux needs the walk length")
        self.input_fifo = input_fifo
        self.recirculate_fifo = recirculate_fifo
        self.finished_fifo = finished_fifo
        self._bulk = bulk_synchronous
        self._max_length = max_length
        self.ghost_laps = 0

    def tick(self, cycle: int) -> None:
        if not self.input_fifo.ready:
            self.stats.starved_cycles += 1
            return
        task = self.input_fifo.front()

        if task.is_ghost():
            # One wasted slot per lap; retire once the schedule would have.
            if task.step + 1 >= self._max_length:
                task.status = TaskStatus.TERMINATED_LENGTH
                target = self.finished_fifo
            else:
                target = self.recirculate_fifo
        elif self._bulk and task.is_terminal() and task.step < self._max_length:
            # Early termination without handling: slot becomes a ghost.
            task.status = TaskStatus.GHOST
            target = self.recirculate_fifo
        elif task.is_terminal():
            target = self.finished_fifo
        else:
            target = self.recirculate_fifo

        if not target.space:
            self.stats.blocked_cycles += 1
            return
        self.input_fifo.pop()
        if task.is_ghost():
            task.step += 1
            self.ghost_laps += 1
            task.reset_hop_state()
        elif not task.is_terminal():
            task.reset_hop_state()
        target.push(task)
        self.stats.active_cycles += 1
        self.stats.items_processed += 1


class FlatBalancer(Module):
    """Work-conserving N-to-N balancer with butterfly-equivalent latency.

    Each cycle it accepts up to one task per input and, after the modeled
    fabric latency, delivers each task to the least-occupied non-full
    output — the steady-state behaviour the butterfly converges to.
    """

    def __init__(
        self,
        name: str,
        inputs: list[StreamFifo],
        outputs: list[StreamFifo],
        latency: int,
    ) -> None:
        super().__init__(name)
        if latency < 1:
            raise SchedulerError("latency must be >= 1")
        self._inputs = inputs
        self._outputs = outputs
        self._latency = latency
        self._pipe: deque[tuple[int, Task]] = deque()
        self._capacity = max(2 * len(inputs), 2) * latency
        self._rr = 0

    def tick(self, cycle: int) -> None:
        progressed = False
        # Deliver every ready task to the emptiest available output.
        while self._pipe and self._pipe[0][0] <= cycle:
            candidates = [f for f in self._outputs if not f.is_full()]
            if not candidates:
                break
            target = min(candidates, key=lambda f: f.in_flight())
            _, task = self._pipe.popleft()
            target.push(task)
            self.stats.items_processed += 1
            progressed = True
        # Accept one task per input port, round-robin start for fairness.
        n = len(self._inputs)
        for k in range(n):
            if len(self._pipe) >= self._capacity:
                break
            fifo = self._inputs[(self._rr + k) % n]
            task = fifo.try_pop()
            if task is not None:
                self._pipe.append((cycle + self._latency, task))
                progressed = True
        self._rr = (self._rr + 1) % n
        if progressed or self._pipe:
            self.stats.active_cycles += 1
        else:
            self.stats.starved_cycles += 1

    def busy(self) -> bool:
        return bool(self._pipe)
