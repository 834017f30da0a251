"""Unit tests for loader, writer, demux and access engine."""

import pytest

from repro.core import (
    AccessEngine,
    AsyncPipeline,
    QueryLoader,
    QueryWriter,
    ResponseRouter,
    Task,
    TaskDemux,
    TaskStatus,
    WalkRecorder,
)
from repro.errors import MemoryModelError, SchedulerError
from repro.graph import cycle_graph
from repro.memory import (
    ChannelGroup,
    GraphMemoryLayout,
    MemoryRequest,
    MemorySpec,
    MemorySystem,
)
from repro.sampling import QueryStream
from repro.sim import SimulationKernel, StreamFifo
from repro.walks import Query, URWSpec

SPEC = MemorySpec(
    "t", num_channels=4, random_tx_rate_mhz=320, sequential_gbs=10, round_trip_cycles=3
)


class TestQueryLoader:
    def build(self, queries, max_inflight=8, **kw):
        kernel = SimulationKernel()
        out = kernel.make_fifo(16, "out")
        recorder = WalkRecorder()
        loader = QueryLoader(
            "loader", queries, [out], recorder, max_inflight=max_inflight, **kw
        )
        kernel.add_module(loader)
        return kernel, out, recorder, loader

    def test_injects_in_order(self):
        queries = [Query(i, i + 10) for i in range(5)]
        kernel, out, recorder, loader = self.build(queries)
        for _ in range(10):
            kernel.step()
        tasks = []
        while not out.is_empty():
            tasks.append(out.pop())
        assert [t.query_id for t in tasks] == [0, 1, 2, 3, 4]
        assert [t.vertex for t in tasks] == [10, 11, 12, 13, 14]
        assert recorder.started == loader.injected == 5

    def test_respects_inflight_cap(self):
        queries = [Query(i, 0) for i in range(20)]
        kernel, out, recorder, loader = self.build(queries, max_inflight=3)
        for _ in range(20):
            kernel.step()
        assert loader.injected == 3  # nothing finishes, cap holds

    def test_endless_wraps_with_fresh_ids(self):
        queries = [Query(i, i) for i in range(2)]
        kernel, out, recorder, loader = self.build(
            queries, max_inflight=100, endless=True
        )
        for _ in range(12):
            kernel.step()
            while not out.is_empty():
                out.pop()
        assert loader.injected > 2
        assert recorder.started == loader.injected  # unique ids throughout

    def test_validation(self):
        kernel = SimulationKernel()
        out = kernel.make_fifo(4, "out")
        with pytest.raises(SchedulerError):
            QueryLoader("l", [], [], WalkRecorder(), max_inflight=1)
        with pytest.raises(SchedulerError):
            QueryLoader("l", [], [out], WalkRecorder(), max_inflight=0)
        with pytest.raises(SchedulerError):
            QueryLoader("l", [], [out], WalkRecorder(), max_inflight=1, batch_size=0)


class TestQueryWriter:
    def test_completes_queries(self):
        kernel = SimulationKernel()
        fifos = [kernel.make_fifo(4, f"f{i}") for i in range(2)]
        recorder = WalkRecorder()
        for qid in range(4):
            recorder.start_query(qid, 0)
        writer = QueryWriter("w", fifos, recorder)
        kernel.add_module(writer)
        for qid in range(4):
            fifos[qid % 2].push(Task(query_id=qid, vertex=0, stream=QueryStream(0),
                                     status=TaskStatus.TERMINATED_LENGTH))
        for _ in range(6):
            kernel.step()
        assert writer.completed == 4
        assert recorder.all_done()


class TestTaskDemux:
    def build(self, bulk=False, max_length=10):
        kernel = SimulationKernel()
        src = kernel.make_fifo(8, "src")
        recirc = kernel.make_fifo(8, "recirc")
        done = kernel.make_fifo(8, "done")
        demux = TaskDemux("d", src, recirc, done,
                          bulk_synchronous=bulk, max_length=max_length)
        kernel.add_module(demux)
        return kernel, src, recirc, done, demux

    def test_running_tasks_recirculate(self):
        kernel, src, recirc, done, _ = self.build()
        task = Task(query_id=0, vertex=1, stream=QueryStream(0), degree=5, sample_index=2)
        src.push(task)
        for _ in range(4):
            kernel.step()
        out = recirc.pop()
        assert out.query_id == 0
        assert out.degree == -1  # hop state reset
        assert done.is_empty()

    def test_terminal_tasks_finish(self):
        kernel, src, recirc, done, _ = self.build()
        src.push(Task(query_id=1, vertex=1, stream=QueryStream(0),
                      status=TaskStatus.TERMINATED_DANGLING))
        for _ in range(4):
            kernel.step()
        assert done.pop().query_id == 1
        assert recirc.is_empty()

    def test_bulk_mode_converts_early_death_to_ghost(self):
        kernel, src, recirc, done, demux = self.build(bulk=True, max_length=10)
        src.push(Task(query_id=2, vertex=1, stream=QueryStream(0), step=3,
                      status=TaskStatus.TERMINATED_DANGLING))
        for _ in range(4):
            kernel.step()
        ghost = recirc.pop()
        assert ghost.is_ghost()
        assert ghost.step == 4  # the conversion lap counted
        assert demux.ghost_laps == 1

    def test_ghost_retires_at_walk_length(self):
        kernel, src, recirc, done, _ = self.build(bulk=True, max_length=5)
        src.push(Task(query_id=3, vertex=1, stream=QueryStream(0), step=4,
                      status=TaskStatus.GHOST))
        for _ in range(4):
            kernel.step()
        finished = done.pop()
        assert finished.status is TaskStatus.TERMINATED_LENGTH

    def test_bulk_demux_needs_length(self):
        kernel = SimulationKernel()
        f = kernel.make_fifo(2, "f")
        with pytest.raises(SchedulerError):
            TaskDemux("d", f, f, f, bulk_synchronous=True, max_length=0)


class TestAccessEngineBypass:
    def test_terminated_tasks_skip_memory(self):
        kernel = SimulationKernel()
        memory = kernel.add_memory(
            MemorySystem(SPEC, core_mhz=320, num_channels=2)
        )
        src = kernel.make_fifo(8, "src")
        dst = kernel.make_fifo(8, "dst")
        resp = kernel.make_fifo(8, "resp")
        engine = AccessEngine(
            "e", src, dst, resp,
            route=lambda t: (memory.channel(ChannelGroup.ROW, 0), 1),
            on_response=lambda t, c: None,
            outstanding_capacity=4,
        )
        kernel.add_module(engine)
        src.push(Task(query_id=0, vertex=0, stream=QueryStream(0),
                      status=TaskStatus.TERMINATED_LENGTH))
        for _ in range(4):
            kernel.step()
        assert dst.pop().query_id == 0
        assert engine.requests_issued == 0

    def test_running_tasks_round_trip_through_memory(self):
        kernel = SimulationKernel()
        memory = kernel.add_memory(
            MemorySystem(SPEC, core_mhz=320, num_channels=2)
        )
        from repro.core import ResponseRouter

        src = kernel.make_fifo(8, "src")
        dst = kernel.make_fifo(8, "dst")
        resp = kernel.make_fifo(8, "resp")
        touched = []
        engine = AccessEngine(
            "e", src, dst, resp,
            route=lambda t: (memory.channel(ChannelGroup.ROW, 1), 1),
            on_response=lambda t, c: touched.append(t.query_id),
            outstanding_capacity=4,
        )
        kernel.add_module(engine)
        kernel.add_module(ResponseRouter("r", memory))
        src.push(Task(query_id=7, vertex=3, stream=QueryStream(0)))
        for _ in range(15):
            kernel.step()
        assert touched == [7]
        assert dst.pop().query_id == 7
        assert engine.requests_issued == engine.responses_handled == 1


class TestResponseRouter:
    """Out of order across destinations within the 64-entry reorder
    window, in order per destination."""

    def completed(self, tagged):
        """A router over one channel whose responses are ``tagged``,
        ``(fifo, item)`` pairs in completion order."""
        memory = MemorySystem(SPEC, core_mhz=320, num_channels=1)
        channel = memory.channel(ChannelGroup.ROW, 0)
        for tag in tagged:
            channel.submit(MemoryRequest(tag))
        for _ in range(len(tagged) + 2 * SPEC.round_trip_cycles):
            memory.tick()
        assert channel.stats.requests_completed == len(tagged)
        return ResponseRouter("r", memory), channel

    @staticmethod
    def drain(fifo):
        fifo.commit()
        items = []
        while not fifo.is_empty():
            items.append(fifo.pop())
        fifo.commit()
        return items

    def test_a_full_destination_holds_back_only_its_own_responses(self):
        slow, fast = StreamFifo(2, "slow"), StreamFifo(64, "fast")
        router, channel = self.completed(
            [pair for i in range(20) for pair in ((slow, f"s{i}"), (fast, f"f{i}"))])
        router.tick(0)
        assert self.drain(fast) == [f"f{i}" for i in range(20)]
        assert [r.tag[1] for r in channel._responses] == [f"s{i}" for i in range(2, 20)]
        slow.commit()
        assert slow.pop() == "s0"                # frees no space until the commit
        router.tick(1)
        assert router.delivered == 22
        slow.commit()                            # s1 held, one slot free
        router.tick(2)
        assert self.drain(slow) == ["s1", "s2"] and router.delivered == 23
        assert channel.response_queue()[0].tag[1] == "s3"

    def test_a_lone_response_is_delivered_in_place_or_left_queued(self):
        dest = StreamFifo(1, "dest")
        dest.push("held")                        # full: refuses this cycle
        router, channel = self.completed([(dest, "r0")])
        router.tick(0)
        assert router.delivered == 0 and channel.response_queue()[0].tag[1] == "r0"
        assert self.drain(dest) == ["held"]
        router.tick(1)
        assert router.delivered == 1 and not channel.response_queue()
        assert self.drain(dest) == ["r0"]
        assert (router.stats.starved_cycles, router.stats.active_cycles) == (1, 1)

    def test_only_the_oldest_64_responses_are_offered(self):
        slow, fast = StreamFifo(1, "slow"), StreamFifo(8, "fast")
        slow.push("held")                        # slow refuses everything
        router, _ = self.completed([(slow, i) for i in range(62)] +
                                   [(fast, i) for i in range(5)])
        for cycle, expected in enumerate(([0, 1], [2, 3], [4])):
            router.tick(cycle)
            assert self.drain(fast) == expected  # window slots 63 and 64


class TestPipelineWiring:
    def test_a_channel_the_memory_lacks_fails_at_construction(self):
        """The layout names 4 channels per group; the memory has 2 of
        each.  Routes bind channels at wiring, so the pipeline refuses
        to build instead of failing at the first task routed there."""
        graph = cycle_graph(8)
        spec = URWSpec(max_length=4)
        kernel = SimulationKernel()
        memory = MemorySystem(SPEC, core_mhz=320, num_channels=2)
        layout = GraphMemoryLayout(graph, num_channels=4)
        with pytest.raises(MemoryModelError, match="out of range"):
            AsyncPipeline(
                kernel=kernel, index=0, graph=graph, layout=layout, memory=memory,
                spec=spec, sampler=spec.make_sampler(), recorder=WalkRecorder(),
                input_fifo=kernel.make_fifo(4, "in"), output_fifo=kernel.make_fifo(4, "out"),
                outstanding_capacity=4,
            )
