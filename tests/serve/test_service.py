"""Service mechanics: flush policy, lifecycle, stats, failure isolation."""

import asyncio

import numpy as np
import pytest

from repro.engines import PreparedEngine
from repro.errors import GraphError, ReproError, ServeError
from repro.graph import path_graph, powerlaw
from repro.serve import ServeConfig, WalkService, run_open_loop
from repro.serve.stats import ServeStats
from repro.walks import URWSpec, WalkResults


def make_graph():
    return powerlaw(num_vertices=60, num_edges=240, seed=1, name="serve-test")


def drive(coro):
    return asyncio.run(coro)


class SlowEngine(PreparedEngine):
    """Deterministic stub: echoes start vertices, sleeps per batch."""

    name = "slow-stub"

    def __init__(self, delay_seconds: float = 0.0, fail: bool = False) -> None:
        self.delay_seconds = delay_seconds
        self.fail = fail
        self.batches: list[int] = []
        self.closed = False

    def run(self, queries, seed=0, stats=None):
        import time

        self.batches.append(len(queries))
        if self.delay_seconds:
            time.sleep(self.delay_seconds)
        if self.fail:
            raise ReproError("injected engine failure")
        results = WalkResults()
        for query in queries:
            results.add_path([query.start_vertex, query.query_id])
        return results

    def close(self):
        self.closed = True


class TestFlushPolicy:
    def test_flushes_at_max_batch(self):
        engine = SlowEngine()
        graph = make_graph()

        async def scenario():
            config = ServeConfig(max_batch=4, max_wait_ms=10_000.0, queue_depth=64)
            async with WalkService(graph, URWSpec(max_length=5), engine=engine,
                                   config=config) as service:
                futures = [service.try_submit(0) for _ in range(8)]
                await asyncio.gather(*futures)

        drive(scenario())
        # A huge max_wait means only the size trigger can flush: two full
        # batches, no partials.
        assert engine.batches == [4, 4]

    def test_flushes_on_max_wait(self):
        engine = SlowEngine()
        graph = make_graph()

        async def scenario():
            config = ServeConfig(max_batch=1000, max_wait_ms=5.0, queue_depth=64)
            async with WalkService(graph, URWSpec(max_length=5), engine=engine,
                                   config=config) as service:
                future = service.try_submit(0)
                await asyncio.wait_for(future, timeout=5.0)

        drive(scenario())
        # The size trigger is unreachable; only the deadline can have
        # flushed this singleton.
        assert engine.batches == [1]

    def test_coalesces_while_engine_busy(self):
        """Requests arriving during an execution form the next batch —
        the pipelining that keeps the engine from idling."""
        engine = SlowEngine(delay_seconds=0.05)
        graph = make_graph()

        async def scenario():
            config = ServeConfig(max_batch=16, max_wait_ms=1.0, queue_depth=64)
            async with WalkService(graph, URWSpec(max_length=5), engine=engine,
                                   config=config) as service:
                first = service.try_submit(0)
                await asyncio.sleep(0.02)  # batch 1 is now executing
                rest = [service.try_submit(v) for v in range(1, 9)]
                await asyncio.gather(first, *rest)

        drive(scenario())
        assert engine.batches[0] == 1
        assert sum(engine.batches) == 9
        # Everything submitted during the sleep coalesced behind it.
        assert len(engine.batches) == 2


class TestLifecycle:
    def test_submit_before_start_rejected(self):
        service = WalkService(make_graph(), URWSpec(max_length=5))

        async def scenario():
            with pytest.raises(ServeError, match="not running"):
                service.try_submit(0)

        drive(scenario())

    def test_stop_drains_admitted_requests(self):
        engine = SlowEngine(delay_seconds=0.01)
        graph = make_graph()

        async def scenario():
            service = WalkService(graph, URWSpec(max_length=5), engine=engine,
                                  config=ServeConfig(max_batch=4, max_wait_ms=1.0,
                                                     queue_depth=64))
            await service.start()
            futures = [service.try_submit(v) for v in range(10)]
            await service.stop()  # drain=True
            assert all(f.done() for f in futures)
            assert service.occupancy == 0

        drive(scenario())
        assert sum(engine.batches) == 10
        assert engine.closed

    def test_stop_without_drain_fails_pending_futures(self):
        engine = SlowEngine(delay_seconds=0.05)
        graph = make_graph()

        async def scenario():
            service = WalkService(graph, URWSpec(max_length=5), engine=engine,
                                  config=ServeConfig(max_batch=2, max_wait_ms=50.0,
                                                     queue_depth=64))
            await service.start()
            futures = [service.try_submit(v) for v in range(8)]
            await asyncio.sleep(0.01)  # let the first batch start executing
            await service.stop(drain=False)
            assert service.occupancy == 0
            resolved, failed = 0, 0
            for future in futures:
                try:
                    await future
                    resolved += 1
                except ServeError:
                    failed += 1
            # The executing batch completes; everything still queued or
            # coalescing is failed loudly rather than left hanging.
            assert resolved + failed == 8
            assert failed > 0

        drive(scenario())
        assert engine.closed

    def test_stop_without_start_still_closes_engine(self):
        """__init__ builds the engine eagerly (a parallel engine holds a
        worker pool + shared memory), so an abandoned, never-started
        service must still release it on stop."""
        engine = SlowEngine()
        service = WalkService(make_graph(), URWSpec(max_length=5), engine=engine)
        drive(service.stop())
        assert engine.closed

    def test_resolved_slice_does_not_pin_batch_buffer(self):
        """Each request's WalkResults must own its path: batch paths are
        views into one buffer per micro-batch, and handing those out
        would pin the whole batch for as long as any response lives."""
        graph = make_graph()

        async def scenario():
            config = ServeConfig(max_batch=8, max_wait_ms=5.0, queue_depth=64)
            async with WalkService(graph, URWSpec(max_length=6),
                                   config=config) as service:
                futures = [service.try_submit(0) for _ in range(8)]
                return await asyncio.gather(*futures)

        for results in drive(scenario()):
            assert results.path_of(0).base is None

    def test_context_manager_round_trip(self):
        graph = make_graph()

        async def scenario():
            async with WalkService(graph, URWSpec(max_length=5)) as service:
                results = await service.submit(0)
                assert results.num_queries == 1
            with pytest.raises(ServeError):
                service.try_submit(0)

        drive(scenario())

    @pytest.mark.parametrize("engine,options", [("parallel", {"workers": 2}),
                                                ("dist", {"shards": 2})])
    def test_restart_refused_when_engine_cannot_run_again(self, engine, options):
        """stop() tears the pool engines' workers down for good, so a
        second start() must fail there — not come up and then book every
        request as failed with 'engine is closed'."""
        graph = make_graph()

        async def scenario():
            service = WalkService(graph, URWSpec(max_length=5), engine=engine,
                                  **options)
            await service.start()
            results = await asyncio.wait_for(service.submit(2), timeout=60.0)
            assert results.path_of(0)[0] == 2
            await service.stop()
            with pytest.raises(ServeError, match=f"cannot restart.*{engine}"):
                await service.start()
            with pytest.raises(ServeError, match="not running"):
                service.try_submit(2)
            await service.stop()  # still safe on the dead service
            return service.stats

        stats = drive(scenario())
        assert (stats.offered, stats.completed, stats.failed) == (1, 1, 0)

    def test_engine_options_rejected_with_prepared_engine(self):
        with pytest.raises(ServeError, match="prepare_engine"):
            WalkService(make_graph(), URWSpec(max_length=5),
                        engine=SlowEngine(), workers=2)


class TestFailureIsolation:
    def test_engine_failure_propagates_to_futures(self):
        engine = SlowEngine(fail=True)
        graph = make_graph()

        async def scenario():
            config = ServeConfig(max_batch=4, max_wait_ms=1.0, queue_depth=64)
            async with WalkService(graph, URWSpec(max_length=5), engine=engine,
                                   config=config) as service:
                futures = [service.try_submit(v) for v in range(4)]
                for future in futures:
                    with pytest.raises(ReproError, match="injected"):
                        await future
                assert service.occupancy == 0
                # The service survives a failed batch and keeps serving.
                engine.fail = False
                results = await service.submit(1)
                assert results.num_queries == 1

        drive(scenario())

    def test_out_of_range_vertex_rejected_at_admission(self):
        """A doomed request fails at its own call site instead of
        poisoning the micro-batch it would have joined."""
        graph = path_graph(4)

        async def scenario():
            async with WalkService(graph, URWSpec(max_length=5)) as service:
                with pytest.raises(GraphError, match="out of range"):
                    service.try_submit(99)
                results = await service.submit(1)
                assert results.path_of(0)[0] == 1

        drive(scenario())


class TestStats:
    def test_percentiles_and_histogram(self):
        stats = ServeStats()
        for latency in (0.010, 0.020, 0.030, 0.040):
            stats.record_completion(latency, now=1.0 + latency)
        stats.record_batch(2, hops=10, service_seconds=0.01)
        stats.record_batch(2, hops=14, service_seconds=0.01)
        percentiles = stats.latency_percentiles()
        assert percentiles["p50"] == pytest.approx(0.025)
        assert percentiles["p99"] <= 0.040
        assert stats.batch_size_histogram() == {2: 2}
        assert stats.mean_batch_size() == 2.0
        assert stats.total_hops == 24

    def test_empty_stats_are_presentable(self):
        stats = ServeStats()
        assert np.isnan(stats.latency_percentiles()["p50"])
        assert stats.sustained_hops_per_second() == 0.0
        snapshot = stats.snapshot()
        assert snapshot["latency_ms"]["p50"] is None
        assert "n/a" in stats.summary()

    def test_sustained_throughput_spans_submit_to_completion(self):
        stats = ServeStats()
        stats.record_submit(10.0)
        stats.record_batch(3, hops=300, service_seconds=0.5)
        stats.record_completion(1.0, now=12.0)
        assert stats.sustained_hops_per_second() == pytest.approx(150.0)

    def test_service_records_end_to_end(self):
        graph = make_graph()

        async def scenario():
            config = ServeConfig(max_batch=8, max_wait_ms=2.0, queue_depth=64)
            async with WalkService(graph, URWSpec(max_length=6),
                                   config=config) as service:
                await run_open_loop(service, np.zeros(12, dtype=np.int64))
                return service

        service = drive(scenario())
        assert service.stats.completed == 12
        assert service.stats.dropped == 0
        assert sum(size * count for size, count
                   in service.stats.batch_size_histogram().items()) == 12
        assert len(service.stats.latencies) == 12
        assert service.stats.snapshot()["sustained_hops_per_sec"] > 0


class TestStatsRegressions:
    def test_zero_elapsed_snapshot_does_not_overflow(self):
        """Regression: a degenerate window (submit and completion at the
        same clock reading) makes sustained hops/s infinite, and
        round(inf) used to raise OverflowError out of snapshot()."""
        stats = ServeStats()
        stats.record_submit(5.0)
        stats.record_batch(1, hops=10, service_seconds=0.0)
        stats.record_completion(0.0, now=5.0)
        assert stats.sustained_hops_per_second() == float("inf")
        snapshot = stats.snapshot()  # must not raise
        assert snapshot["sustained_hops_per_sec"] is None
        assert "n/a" in stats.summary()

    def test_failure_bucket_and_accounting_identity(self):
        stats = ServeStats()
        for _ in range(5):
            stats.record_submit(1.0)
        stats.record_drop()
        for _ in range(3):
            stats.record_completion(0.01, now=2.0)
        for _ in range(2):
            stats.record_failure(now=2.0)
        assert stats.offered == 6
        assert stats.offered == stats.completed + stats.dropped + stats.failed
        # Failures contribute no latency sample: percentiles describe
        # successful service only.
        assert len(stats.latencies) == 3
        assert stats.snapshot()["failed"] == 2
        assert "2 failed" in stats.summary()


class TestFailureAccounting:
    def test_engine_failure_lands_in_failed_not_limbo(self):
        """Satellite regression: _execute's exception path used to
        resolve the futures but never record the requests anywhere, so
        offered != completed + dropped + failed on any failed batch."""
        engine = SlowEngine(fail=True)
        graph = make_graph()

        async def scenario():
            config = ServeConfig(max_batch=4, max_wait_ms=1.0, queue_depth=64)
            async with WalkService(graph, URWSpec(max_length=5), engine=engine,
                                   config=config) as service:
                futures = [service.try_submit(v) for v in range(4)]
                for future in futures:
                    with pytest.raises(ReproError):
                        await future
                engine.fail = False
                await service.submit(1)
                stats = service.stats
                assert stats.failed == 4
                assert stats.completed == 1
                assert stats.offered == (stats.completed + stats.dropped
                                         + stats.failed)
                # Failed requests left the gate: the service drained.
                assert service.occupancy == 0

        drive(scenario())


class TestStopMidCoalesce:
    def test_abandoned_futures_fail_and_service_restarts(self):
        """stop(drain=False) while requests sit mid-coalesce: every
        abandoned future gets ServeError, occupancy returns to 0, and a
        subsequent start() serves cleanly on the same service object."""
        engine = SlowEngine()
        graph = make_graph()

        async def scenario():
            config = ServeConfig(max_batch=1000, max_wait_ms=10_000.0,
                                 queue_depth=64)
            service = WalkService(graph, URWSpec(max_length=5), engine=engine,
                                  config=config)
            await service.start()
            # max_batch and max_wait are both unreachable: these requests
            # are parked in the coalescing window when stop() lands.
            futures = [service.try_submit(v) for v in range(6)]
            await asyncio.sleep(0.01)
            assert engine.batches == []  # nothing flushed yet
            await service.stop(drain=False)
            for future in futures:
                assert future.done()
                with pytest.raises(ServeError, match="stopped before"):
                    await future
            assert service.occupancy == 0

            # The same object restarts and serves.
            await service.start()
            results = await asyncio.wait_for(service.submit(2, query_id=0),
                                             timeout=30.0)
            assert results.path_of(0)[0] == 2
            await service.stop()
            assert service.occupancy == 0

        drive(scenario())

    def test_stop_discards_pending_pool_fills_quietly(self):
        """A queued cache pool fill has no future and no gate slot: a
        no-drain stop must discard it without hanging or miscounting."""
        from repro.serve import HotWalkCache

        engine = SlowEngine(delay_seconds=0.05)
        graph = make_graph()
        cache = HotWalkCache(pool_size=4, hot_threshold=1)

        async def scenario():
            config = ServeConfig(max_batch=2, max_wait_ms=50.0, queue_depth=64)
            service = WalkService(graph, URWSpec(max_length=5), engine=engine,
                                  config=config, cache=cache)
            await service.start()
            # The miss triggers a fill; the slow first batch keeps the
            # fill queued when stop() lands.
            first = service.try_submit_cached(0)
            await asyncio.sleep(0.01)
            extra = [service.try_submit_cached(0) for _ in range(3)]
            await service.stop(drain=False)
            outcomes = 0
            for future in (first, *extra):
                try:
                    await future
                except ServeError:
                    pass
                outcomes += 1
            assert outcomes == 4
            assert service.occupancy == 0

        drive(scenario())
