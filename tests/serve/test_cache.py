"""Hot-walk cache: consume-once pools, epoch safety, replay identity.

The two contracts under test, unit-level and through the service:
every cache hit hands back a path bit-identical to the offline replay
of the reserved query id it carries, and a pool built on epoch ``e`` is
unreachable from any other epoch — structurally (epoch-keyed lookups)
and eagerly (invalidation at swaps and via the DynamicGraph listener).
"""

import asyncio

import numpy as np
import pytest

from repro.dynamic import DynamicGraph
from repro.errors import ReproError, ServeError
from repro.graph import from_edges, powerlaw
from repro.serve import (
    POOL_ID_BASE,
    HotWalkCache,
    ServeConfig,
    WalkService,
    replay_paths,
)
from repro.serve.service import _PoolFill  # noqa: F401  (existence check)
from repro.walks import URWSpec


def drive(coro):
    return asyncio.run(coro)


def ring_epochs():
    """Forward ring (epoch 0) then reversed ring (epoch 1): URW paths on
    degree-1 vertices are deterministic, so a path identifies its epoch."""
    n = 8
    forward = from_edges([(i, (i + 1) % n) for i in range(n)], num_vertices=n)
    dynamic = DynamicGraph(forward)
    snap0 = dynamic.snapshot()
    dynamic.remove_edges([(i, (i + 1) % n) for i in range(n)])
    dynamic.add_edges([(i, (i - 1) % n) for i in range(n)])
    snap1 = dynamic.snapshot()
    return dynamic, snap0, snap1


class TestHotWalkCacheUnit:
    def test_validation(self):
        with pytest.raises(ServeError):
            HotWalkCache(pool_size=0)
        with pytest.raises(ServeError):
            HotWalkCache(hot_threshold=0)
        with pytest.raises(ServeError):
            HotWalkCache(max_pools=0)

    def test_miss_threshold_then_fill_queries(self):
        cache = HotWalkCache(pool_size=4, hot_threshold=3)
        assert cache.note_miss(0, 7) is None
        assert cache.note_miss(0, 7) is None
        queries = cache.note_miss(0, 7)
        assert [q.start_vertex for q in queries] == [7, 7, 7, 7]
        assert all(q.query_id >= POOL_ID_BASE for q in queries)
        # Reserved ids are unique and monotonic across fills.
        more = cache.note_miss(0, 9)
        assert more is None  # first miss for vertex 9
        cache.note_miss(0, 9)
        second = cache.note_miss(0, 9)
        ids = [q.query_id for q in queries] + [q.query_id for q in second]
        assert len(set(ids)) == len(ids)

    def test_no_refill_while_filling(self):
        cache = HotWalkCache(pool_size=2, hot_threshold=1)
        assert cache.note_miss(0, 3) is not None
        # Fill in flight: more misses must not allocate a second pool.
        assert cache.note_miss(0, 3) is None
        cache.fill_aborted(3)
        assert cache.note_miss(0, 3) is not None

    def test_take_consumes_once_in_generation_order(self):
        cache = HotWalkCache(pool_size=2, hot_threshold=1)
        queries = cache.note_miss(0, 5)
        entries = [(q.query_id, np.array([5, i])) for i, q in enumerate(queries)]
        cache.install(0, 5, entries)
        first = cache.take(0, 5)
        second = cache.take(0, 5)
        assert first[0] == queries[0].query_id
        assert second[0] == queries[1].query_id
        assert cache.take(0, 5) is None
        assert cache.live_pools == 0

    def test_take_is_epoch_exact(self):
        cache = HotWalkCache(pool_size=1, hot_threshold=1)
        queries = cache.note_miss(0, 2)
        cache.install(0, 2, [(queries[0].query_id, np.array([2]))])
        assert cache.take(1, 2) is None  # other epoch: structurally invisible
        assert cache.take(0, 2) is not None

    def test_drop_stale_and_listener(self):
        cache = HotWalkCache(pool_size=1, hot_threshold=1)
        for vertex in (1, 2):
            queries = cache.note_miss(0, vertex)
            cache.install(0, vertex, [(queries[0].query_id, np.array([vertex]))])
        assert cache.live_pools == 2
        assert cache.drop_stale(1) == 2
        assert cache.live_pools == 0
        assert cache.pools_invalidated == 2

        dynamic, snap0, snap1 = ring_epochs()
        fresh = HotWalkCache(pool_size=1, hot_threshold=1)
        dynamic.add_epoch_listener(fresh.on_epoch)
        queries = fresh.note_miss(snap1.epoch, 0)
        fresh.install(snap1.epoch, 0, [(queries[0].query_id, np.array([0]))])
        dynamic.add_edges([(0, 3)])
        snap2 = dynamic.snapshot()  # listener fires: epoch-1 pool dies
        assert snap2.epoch == 2
        assert fresh.live_pools == 0

    def test_max_pools_bounds_fills(self):
        cache = HotWalkCache(pool_size=1, hot_threshold=1, max_pools=1)
        queries = cache.note_miss(0, 1)
        cache.install(0, 1, [(queries[0].query_id, np.array([1]))])
        assert cache.note_miss(0, 2) is None  # at the bound
        cache.take(0, 1)  # exhausts the pool
        assert cache.note_miss(0, 2) is not None

    def test_snapshot_counters(self):
        cache = HotWalkCache(pool_size=1, hot_threshold=1)
        queries = cache.note_miss(0, 4)
        cache.install(0, 4, [(queries[0].query_id, np.array([4]))])
        cache.take(0, 4)
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5
        assert snap["pools_built"] == 1


class TestServiceCache:
    def test_reserved_ids_rejected_for_clients(self):
        graph = powerlaw(num_vertices=20, num_edges=60, seed=1, name="c")
        spec = URWSpec(max_length=4)
        cache = HotWalkCache(pool_size=4, hot_threshold=1)

        async def scenario():
            async with WalkService(graph, spec) as service:
                with pytest.raises(ServeError, match="reserved"):
                    service.try_submit(0, query_id=POOL_ID_BASE)
                service.reserve_query_ids(10)
                with pytest.raises(ServeError, match="reserved"):
                    service.reserve_query_ids(POOL_ID_BASE)
            # Auto ids stop below the pools' range: the last free id is
            # served; the next submission is refused before it takes a
            # gate place, a ledger entry or a cache miss; a cache hit,
            # which spends no client id, is still served.
            async with WalkService(graph, spec, seed=3, cache=cache) as service:
                await service.submit_cached(5)          # miss: fills a pool
                while not cache.live_pools:
                    await asyncio.sleep(0)
                service.reserve_query_ids(POOL_ID_BASE - 1)
                last = await service.submit(0)
                offered, misses = service.stats.offered, cache.misses
                with pytest.raises(ServeError, match="reserved"):
                    service.try_submit(0)
                with pytest.raises(ServeError, match="reserved"):
                    service.try_submit_cached(6)
                assert service.occupancy == 0
                assert service.stats.offered == offered
                assert cache.misses == misses
                hit = await service.submit_cached(5)
                assert hit.cache_hit and hit.query_id >= POOL_ID_BASE
                return last.paths[0], hit

        last, hit = drive(scenario())
        oracle = replay_paths(graph, spec, {POOL_ID_BASE - 1: 0, hit.query_id: 5}, seed=3)
        assert np.array_equal(last, oracle[POOL_ID_BASE - 1])
        assert np.array_equal(hit.path, oracle[hit.query_id])

    def test_hits_are_bit_identical_to_replay(self):
        """The tentpole contract: a hit's path equals the offline replay
        of the pool id it carries — caching is invisible to semantics."""
        graph = powerlaw(num_vertices=30, num_edges=120, seed=2, name="c2")
        spec = URWSpec(max_length=6)
        cache = HotWalkCache(pool_size=8, hot_threshold=2)

        async def scenario():
            config = ServeConfig(max_batch=8, max_wait_ms=0.5, queue_depth=128)
            async with WalkService(graph, spec, seed=9, config=config,
                                   cache=cache) as service:
                walks = []
                for _ in range(6):
                    walks.extend(await asyncio.gather(*[
                        service.submit_cached(3) for _ in range(4)
                    ]))
                return walks

        walks = drive(scenario())
        hits = [w for w in walks if w.cache_hit]
        misses = [w for w in walks if not w.cache_hit]
        assert hits and misses
        # Distinct ids across the whole run: consume-once means no two
        # responses share randomness.
        ids = [w.query_id for w in walks]
        assert len(set(ids)) == len(ids)
        oracle = replay_paths(graph, spec, {w.query_id: 3 for w in walks},
                              seed=9)
        for walk in walks:
            assert np.array_equal(walk.path, oracle[walk.query_id])
        assert all(w.query_id >= POOL_ID_BASE for w in hits)
        assert all(w.query_id < POOL_ID_BASE for w in misses)

    def test_cache_hits_counted_in_stats(self):
        graph = powerlaw(num_vertices=30, num_edges=120, seed=2, name="c3")
        cache = HotWalkCache(pool_size=4, hot_threshold=1)

        async def scenario():
            config = ServeConfig(max_batch=4, max_wait_ms=0.5, queue_depth=64)
            async with WalkService(graph, URWSpec(max_length=4), seed=9,
                                   config=config, cache=cache) as service:
                await asyncio.gather(*[service.submit_cached(5)
                                       for _ in range(2)])
                # The fill's walkers take the slots the clients leave, so
                # on the open frontier the pool may install a few
                # supersteps after the requests that triggered it.
                while not cache.live_pools:
                    await asyncio.sleep(0)
                await asyncio.gather(*[service.submit_cached(5)
                                       for _ in range(2)])
                stats = service.stats
                assert stats.cache_hits == len(
                    [1 for _ in range(stats.cache_hits)])
                assert stats.cache_hits > 0
                assert stats.completed == 4
                assert stats.offered == 4
                return stats.snapshot()

        snapshot = drive(scenario())
        assert snapshot["cache_hits"] > 0

    def test_epoch_swap_invalidates_pools(self):
        """Post-swap cached responses never surface pre-swap walks: the
        reversed ring makes a stale path detectable on sight."""
        dynamic, snap0, snap1 = ring_epochs()
        spec = URWSpec(max_length=4)
        # pool_size > the pre-swap hit count, so a non-empty epoch-0 pool
        # survives to the swap and must die by invalidation, not exhaustion.
        cache = HotWalkCache(pool_size=8, hot_threshold=1)

        async def scenario():
            config = ServeConfig(max_batch=8, max_wait_ms=0.5, queue_depth=64)
            async with WalkService(snap0, spec, seed=7, config=config,
                                   cache=cache) as service:
                first = []
                for _ in range(3):
                    first.extend(await asyncio.gather(*[
                        service.submit_cached(0) for _ in range(2)
                    ]))
                await service.update_graph(snap1)
                second = []
                for _ in range(3):
                    second.extend(await asyncio.gather(*[
                        service.submit_cached(0) for _ in range(2)
                    ]))
                return first, second

        first, second = drive(scenario())
        assert any(w.cache_hit for w in first)
        assert any(w.cache_hit for w in second)
        assert all(w.epoch == 0 for w in first)
        assert all(w.epoch == 1 for w in second)
        oracle0 = replay_paths(snap0.graph, spec,
                               {w.query_id: 0 for w in first}, seed=7)
        oracle1 = replay_paths(snap1.graph, spec,
                               {w.query_id: 0 for w in second}, seed=7)
        for walk in first:
            assert np.array_equal(walk.path, oracle0[walk.query_id])
        for walk in second:
            assert np.array_equal(walk.path, oracle1[walk.query_id])
        # Pools from epoch 0 were dropped at the swap, not exhausted.
        assert cache.pools_invalidated > 0

    def test_lookup_suspended_while_swap_queued(self):
        """A cached submission between try_update_graph and the swap
        applying must not serve an old-epoch pool entry."""
        dynamic, snap0, snap1 = ring_epochs()
        spec = URWSpec(max_length=4)
        cache = HotWalkCache(pool_size=4, hot_threshold=1)

        async def scenario():
            config = ServeConfig(max_batch=8, max_wait_ms=5.0, queue_depth=64)
            async with WalkService(snap0, spec, seed=7, config=config,
                                   cache=cache) as service:
                for _ in range(2):
                    await asyncio.gather(*[service.submit_cached(0)
                                           for _ in range(2)])
                assert cache.take(0, 0) is not None  # pool is warm
                swap = service.try_update_graph(snap1)
                # Swap queued but not applied: the hit path is closed.
                racing = service.try_submit_cached(0)
                walk = await racing
                await swap
                return walk

        walk = drive(scenario())
        assert not walk.cache_hit
        assert walk.epoch == 1
        oracle = replay_paths(snap1.graph, spec, {walk.query_id: 0}, seed=7)
        assert np.array_equal(walk.path, oracle[walk.query_id])

    def test_engine_failure_aborts_fill(self):
        """A failed micro-batch clears the fill marker so a later miss
        can retry the pool — and fails its clients, not the service."""
        from repro.engines import PreparedEngine
        from repro.walks import WalkResults

        class FlakyEngine(PreparedEngine):
            name = "flaky"

            def __init__(self):
                self.calls = 0

            def run(self, queries, seed=0, stats=None):
                self.calls += 1
                if self.calls == 1:
                    raise ReproError("boom")
                results = WalkResults()
                for query in queries:
                    results.add_path([query.start_vertex, 1])
                return results

            def close(self):
                pass

        graph = powerlaw(num_vertices=20, num_edges=60, seed=1, name="c4")
        cache = HotWalkCache(pool_size=2, hot_threshold=1)

        async def scenario():
            config = ServeConfig(max_batch=4, max_wait_ms=0.5, queue_depth=64)
            async with WalkService(graph, URWSpec(max_length=3),
                                   engine=FlakyEngine(), config=config,
                                   cache=cache) as service:
                first = service.try_submit_cached(2)  # triggers the fill
                with pytest.raises(ReproError):
                    await first
                assert service.stats.failed == 1
                # The aborted fill's marker is gone: the next miss
                # re-triggers, and the retry succeeds.
                second = await service.submit_cached(2)
                third = await service.submit_cached(2)
                assert not second.cache_hit
                assert third.cache_hit
                assert service.stats.offered == (service.stats.completed
                                                 + service.stats.dropped
                                                 + service.stats.failed)

        drive(scenario())

    def test_stop_with_queued_fill_does_not_wedge_cache(self):
        """Regression: a no-drain stop used to discard queued ``_PoolFill``
        items without telling the cache, leaving the vertex marked
        in-flight forever — every later miss saw "a fill is already
        running" and the pool could never be built again."""
        graph = powerlaw(num_vertices=20, num_edges=60, seed=1, name="c5")
        spec = URWSpec(max_length=3)
        cache = HotWalkCache(pool_size=2, hot_threshold=1)
        config = ServeConfig(max_batch=4, max_wait_ms=50.0, queue_depth=64)

        async def interrupted():
            service = WalkService(graph, spec, seed=5, config=config, cache=cache)
            await service.start()
            # Queue the fill and stop before the dispatcher can run it.
            pending = service.try_submit_cached(2)
            await service.stop(drain=False)
            with pytest.raises(ServeError):
                await pending

        drive(interrupted())
        # The vertex must not be stuck "filling": a fresh miss at the
        # threshold re-triggers pool generation on the reused cache.
        assert cache.note_miss(0, 2) is not None
        cache.fill_aborted(2)  # undo the probe's marker

        async def reused():
            fast = ServeConfig(max_batch=4, max_wait_ms=0.5, queue_depth=64)
            async with WalkService(graph, spec, seed=5, config=fast,
                                   cache=cache) as service:
                first = await service.submit_cached(2)
                second = await service.submit_cached(2)
                assert not first.cache_hit
                assert second.cache_hit

        drive(reused())
