"""Query Loader, Query Writer and the task demux.

These are the boundary modules of the accelerator (Figure 4a steps 1 and
the write-back path) plus :class:`TaskDemux`, which splits a pipeline's
Column Access output into the recirculation stream (unfinished queries,
fed back to the scheduler) and the completion stream (to the Query
Writer).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.recorder import WalkRecorder
from repro.core.task import Task, TaskStatus
from repro.errors import SchedulerError
from repro.sampling.vectorized import QueryStream, seed_sequence_states
from repro.sim.fifo import StreamFifo
from repro.sim.module import Module
from repro.walks.base import Query, WalkBatch


class QueryLoader(Module):
    """Streams queries into the scheduler, bounded by the in-flight cap.

    In bulk-synchronous mode (the Figure 11 baseline) the loader releases
    queries in batches and waits for the whole batch to drain, mimicking
    FastRW/LightRW's batched execution.

    Each task leaves with its query's stream, ``SeedSequence((seed,
    query_id))`` as the software engines key it.  An endless stream
    numbers its fresh ids on from the batch's largest.
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
        seed: int = 0,
    ) -> None:
        super().__init__(name)
        if not outputs:
            raise SchedulerError("loader needs at least one output")
        if max_inflight < 1:
            raise SchedulerError("max_inflight must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise SchedulerError("batch_size must be >= 1")
        # Each query enters the pipeline as two words, its id and start.
        batch = WalkBatch.of(queries)
        self._ids, self._starts = batch.ids.tolist(), batch.starts.tolist()
        self._seed = seed
        self._states = seed_sequence_states(seed, batch.ids).tolist()
        #: An endless stream's position ``p`` past the batch runs as id
        #: ``p + _fresh_offset``: the ids count on from the largest.
        self._fresh_offset = max(self._ids, default=-1) + 1 - len(self._ids)
        self._outputs = outputs
        self._recorder = recorder
        self._max_inflight = max_inflight
        self._static = static_binding
        self._batch_size = batch_size
        self._endless = endless
        self._next = 0
        #: ``_next`` at which the stream is exhausted (never, when endless).
        self._end = math.inf if endless else len(self._ids)
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

    def _peek_query(self) -> tuple[int, int] | None:
        """``(query_id, start_vertex)`` of the next query to inject,
        wrapping with fresh ids when endless."""
        if self._next < len(self._ids):
            return self._ids[self._next], self._starts[self._next]
        if not self._endless:
            return None
        return self._next + self._fresh_offset, self._starts[self._next % len(self._starts)]

    def _stream(self, query_id: int) -> QueryStream:
        """The stream of ``query_id``, the query at ``_next``: derived
        with the batch, or on its own for a fresh id."""
        if self._next < len(self._states):
            return QueryStream(self._states[self._next])
        return QueryStream(seed_sequence_states(self._seed, [query_id])[0])

    def tick(self, cycle: int) -> None:
        if self._next >= self._end:
            # Every query injected: the loader only counts a starved cycle.
            self.stats.starved_cycles += 1
            return
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
            query_id, start = query
            if self._static and port != query_id % len(self._outputs):
                continue
            if fifo.is_full():
                continue
            task = Task(query_id, start, self._stream(query_id))
            self._recorder.start_query(query_id, start)
            fifo.push(task)
            self._next += 1
            self.injected += 1
            injected_this_cycle += 1
        if injected_this_cycle:
            self.stats.active_cycles += 1
            self.stats.items_processed += injected_this_cycle
        else:
            self.stats.blocked_cycles += 1


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
