"""The open-frontier dispatcher, on a real ``engine="batch"`` service.

A batch engine can keep its run open, so the service seats requests
into free walker slots and steps the engine itself, one superstep per
event-loop turn — no coalescing wait, no thread.  What that buys (a short
walk does not wait for a long one) and what it must keep (epoch
boundaries, whole pools, failure isolation, the ledger identity, owned
replies) are held here; determinism against ``replay_paths`` is in
``test_determinism.py``.
"""

import asyncio

import numpy as np
import pytest
from stall_helpers import NeverAccepting

from repro.errors import GraphError, ReproError, SamplingError, ServeError
from repro.graph import from_edges
from repro.obs.trace import tracing
from repro.serve import (
    POOL_ID_BASE,
    HotWalkCache,
    ServeConfig,
    TenantSpec,
    WalkService,
    replay_paths,
)
from repro.walks import PPRSpec, URWSpec
from repro.walks.batch import BatchEngine

from test_update_graph import two_epochs

RING = 12


def lollipop():
    """A ring 0..11 (every walk from it runs to ``max_length``) plus
    vertex 12 -> 13, 13 dangling (a walk from 12 takes one hop)."""
    edges = [(i, (i + 1) % RING) for i in range(RING)] + [(RING, RING + 1)]
    return from_edges(edges, num_vertices=RING + 2)


def drive(coro):
    return asyncio.run(coro)


def config(max_batch):
    # max_wait_ms is never read on this path: a huge one would hang a
    # closed dispatcher on every under-full batch.
    return ServeConfig(max_batch=max_batch, max_wait_ms=60_000.0, queue_depth=256)


async def turns(count):
    for _ in range(count):
        await asyncio.sleep(0)


class FlakyKernelEngine(BatchEngine):
    """A batch engine whose next ``arm``-ed superstep raises once."""

    def __init__(self, graph, spec):
        super().__init__(graph, spec)
        self.armed = False
        inner = self._kernel.sample

        def sample(*args):
            if self.armed:
                self.armed = False
                raise ReproError("injected superstep failure")
            return inner(*args)

        self._kernel.sample = sample


def test_batch_engine_is_served_without_a_thread():
    async def scenario():
        async with WalkService(lollipop(), URWSpec(max_length=5),
                               config=config(4)) as service:
            await service.submit(0)
            return service._executor

    assert drive(scenario()) is None


def test_short_walk_overtakes_the_walks_it_joined():
    """The behaviour the dispatcher exists for: a request that arrives
    while others are mid-walk resolves before them if its walk is
    shorter — in a closed batch it would have waited for the next run,
    and then for that run's longest walk."""
    graph, spec = lollipop(), URWSpec(max_length=40)
    order = []

    async def scenario():
        async with WalkService(graph, spec, seed=3, config=config(8)) as service:
            long_walks = [service.try_submit(v, query_id=v) for v in range(4)]
            for future in long_walks:
                future.add_done_callback(lambda _: order.append("long"))
            await turns(5)  # seated and a few hops in
            assert not any(f.done() for f in long_walks)
            short = service.try_submit(RING, query_id=99)
            short.add_done_callback(lambda _: order.append("short"))
            results = await asyncio.gather(short, *long_walks)
            return results, service.stats

    results, stats = drive(scenario())
    assert order == ["short", "long", "long", "long", "long"]
    oracle = replay_paths(graph, spec, {99: RING, **{v: v for v in range(4)}}, seed=3)
    for result, query_id in zip(results, (99, 0, 1, 2, 3)):
        assert np.array_equal(result.path_of(0), oracle[query_id])
    assert results[0].path_of(0).tolist() == [RING, RING + 1]
    # Two admission groups (4, then 1) sharing supersteps.
    assert stats.batch_sizes == [4, 1]
    assert stats.supersteps >= 40
    assert 1.0 <= stats.mean_step_occupancy() <= 5.0


def test_swap_waits_for_seated_walkers_and_no_path_mixes_epochs():
    snap0, snap1 = two_epochs()
    spec = URWSpec(max_length=30)
    order = []

    async def scenario():
        async with WalkService(snap0, spec, seed=7, config=config(4)) as service:
            # Six old requests through four slots: two wait in the backlog.
            old = [service.try_submit(i, query_id=i) for i in range(6)]
            await turns(4)
            assert service.occupancy == 6 and not any(f.done() for f in old)
            swap = service.try_update_graph(snap1)
            new = [service.try_submit(i, query_id=100 + i) for i in range(6)]
            for tag, futures in (("old", old), ("swap", [swap]), ("new", new)):
                for future in futures:
                    future.add_done_callback(lambda _, tag=tag: order.append(tag))
            await turns(10)
            assert service.epoch == 0 and not swap.done()  # walkers still seated
            old_results = await asyncio.gather(*old)
            assert await swap == 1
            return old_results, await asyncio.gather(*new)

    old_results, new_results = drive(scenario())
    assert order == ["old"] * 6 + ["swap"] + ["new"] * 6
    oracle_old = replay_paths(snap0.graph, spec, {i: i for i in range(6)}, seed=7)
    oracle_new = replay_paths(snap1.graph, spec, {100 + i: i for i in range(6)}, seed=7)
    for i in range(6):
        assert np.array_equal(old_results[i].path_of(0), oracle_old[i])
        assert np.array_equal(new_results[i].path_of(0), oracle_new[100 + i])
        # The rings run opposite ways: a path that changed graphs mid-walk
        # would turn round.
        assert set(np.diff(old_results[i].path_of(0)) % 8) == {1}
        assert set(np.diff(new_results[i].path_of(0)) % 8) == {7}


def test_pool_fill_split_over_turns_installs_once_whole_on_one_epoch():
    graph, spec = lollipop(), URWSpec(max_length=6)
    cache = HotWalkCache(pool_size=10, hot_threshold=1)

    async def scenario():
        # Ten pool walkers through three slots: at least four seatings.
        async with WalkService(graph, spec, seed=5, config=config(3),
                               cache=cache) as service:
            miss = await service.submit_cached(2)
            assert not miss.cache_hit
            installs = []
            install = cache.install
            cache.install = lambda *args: (installs.append(args), install(*args))[1]
            while not cache.live_pools:
                assert cache.pools_built == 0
                await asyncio.sleep(0)
            hits = [await service.submit_cached(2) for _ in range(10)]
            return installs, hits

    installs, hits = drive(scenario())
    assert len(installs) == 1 and cache.pools_built == 1
    epoch, vertex, entries = installs[0]
    assert (epoch, vertex, len(entries)) == (0, 2, 10)
    assert all(hit.cache_hit and hit.epoch == 0 for hit in hits)
    assert len({hit.query_id for hit in hits}) == 10
    oracle = replay_paths(graph, spec, {hit.query_id: 2 for hit in hits}, seed=5)
    for hit in hits:
        assert np.array_equal(hit.path, oracle[hit.query_id])
        assert hit.path.base is None


def test_stop_with_a_half_seated_fill_aborts_it():
    graph, spec = lollipop(), URWSpec(max_length=30)
    cache = HotWalkCache(pool_size=10, hot_threshold=1)

    async def scenario():
        service = WalkService(graph, spec, seed=5, config=config(3), cache=cache)
        await service.start()
        await service.submit_cached(2)  # its fill now holds the three slots
        assert cache.note_miss(0, 2) is None  # marked in flight
        await service.stop()
        return service

    service = drive(scenario())
    assert cache.pools_built == 0 and service.occupancy == 0
    # Not stuck "filling": the next miss at the threshold triggers again.
    assert cache.note_miss(0, 2) is not None


def test_raising_step_fails_exactly_the_seated_requests():
    graph, spec = lollipop(), URWSpec(max_length=10)

    async def scenario():
        engine = FlakyKernelEngine(graph, spec)
        async with WalkService(graph, spec, engine=engine, seed=2,
                               config=config(2)) as service:
            futures = [service.try_submit(v, query_id=v) for v in range(5)]
            await turns(3)  # 0 and 1 are seated and walking
            engine.armed = True
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            later = await service.submit(4, query_id=50)
            return outcomes, later, service

    outcomes, later, service = drive(scenario())
    failed = [isinstance(outcome, ReproError) for outcome in outcomes]
    assert failed == [True, True, False, False, False]
    oracle = replay_paths(graph, spec, {2: 2, 3: 3, 4: 4, 50: 4}, seed=2,
                          sampler="default")
    for query_id in (2, 3, 4):
        assert np.array_equal(outcomes[query_id].path_of(0), oracle[query_id])
    assert np.array_equal(later.path_of(0), oracle[50])
    stats = service.stats
    assert (stats.offered, stats.completed, stats.dropped, stats.failed) == (6, 4, 0, 2)
    assert stats.offered == stats.completed + stats.dropped + stats.failed
    assert service.occupancy == 0


def test_walkers_stalled_past_the_safety_valve_fail_only_their_requests():
    """A sampler that never accepts stalls the ring walkers after their
    first hop until the per-walker bound raises from ``step()``: the two
    seated requests fail naming p and q, the one waiting behind them is
    seated next and walks out, and the ledger identity holds."""
    graph, spec = lollipop(), NeverAccepting(p=4.0, q=0.25, max_length=10)

    async def scenario():
        engine = BatchEngine(graph, spec)  # degree-1 rows stay on the rejection kernel
        async with WalkService(graph, spec, engine=engine, seed=2,
                               config=config(2)) as service:
            futures = [service.try_submit(v, query_id=v) for v in (0, 1, RING)]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            return outcomes, service

    outcomes, service = drive(scenario())
    for outcome in outcomes[:2]:
        assert isinstance(outcome, SamplingError)
        assert "after 10000 rounds (p=4.0, q=0.25)" in str(outcome)
    assert outcomes[2].path_of(0).tolist() == [RING, RING + 1]
    stats = service.stats
    assert (stats.offered, stats.completed, stats.dropped, stats.failed) == (3, 1, 0, 2)
    assert stats.offered == stats.completed + stats.dropped + stats.failed
    assert service.occupancy == 0


def test_request_admitted_against_a_swap_that_fails_costs_only_itself():
    """Admission validates against the newest *queued* graph; if that
    swap then fails to apply, a start vertex only the new graph had is
    refused at seating — before anything is seated — and fails alone."""
    small, big = lollipop(), from_edges([(i, (i + 1) % 40) for i in range(40)],
                                        num_vertices=40)

    class NoSwapEngine(BatchEngine):
        def swap_snapshot(self, snapshot):
            raise ReproError("injected swap failure")

    async def scenario():
        engine = NoSwapEngine(small, URWSpec(max_length=5))
        async with WalkService(small, URWSpec(max_length=5), engine=engine, seed=2,
                               config=config(4)) as service:
            swap = service.try_update_graph(big)
            futures = [service.try_submit(v, query_id=v) for v in (30, 1)]
            outcomes = await asyncio.gather(swap, *futures, return_exceptions=True)
            later = await service.submit(2, query_id=9)
            return outcomes, later, service

    (swapped, grown, plain), later, service = drive(scenario())
    assert isinstance(swapped, ReproError) and service.epoch == 0
    # Seated together, refused together: admit raises before seating any.
    assert isinstance(grown, GraphError) and isinstance(plain, GraphError)
    assert later.path_of(0)[0] == 2
    stats = service.stats
    assert (stats.offered, stats.completed, stats.failed) == (3, 1, 2)
    assert service.occupancy == 0


def test_pool_fill_refused_at_seating_is_aborted_and_the_loop_carries_on():
    """A fill is queued on the epoch it will run on, so its ``admit`` has
    nothing to refuse — but if it raises all the same, the fill is
    aborted, nothing else is lost, and the dispatcher lives."""
    graph, spec = lollipop(), URWSpec(max_length=5)
    cache = HotWalkCache(pool_size=4, hot_threshold=1)

    class NoPoolEngine(BatchEngine):
        def open_frontier(self, seed, capacity):
            frontier = super().open_frontier(seed, capacity)
            admit = frontier.admit

            def refuse_pool_ids(query_ids, starts, states=None):
                if any(query_id >= POOL_ID_BASE for query_id in query_ids):
                    raise ReproError("injected fill refusal")
                return admit(query_ids, starts, states)

            frontier.admit = refuse_pool_ids
            return frontier

    async def scenario():
        async with WalkService(graph, spec, engine=NoPoolEngine(graph, spec), seed=2,
                               config=config(4), cache=cache) as service:
            miss = await service.submit_cached(2)
            await turns(4)  # the fill reaches the frontier and is refused
            later = await service.submit(3, query_id=9)
            return miss, later, service

    miss, later, service = drive(scenario())
    assert not miss.cache_hit and later.path_of(0)[0] == 3
    assert cache.pools_built == 0 and service.occupancy == 0
    # Not stuck "filling": the next miss at the threshold triggers again.
    assert cache.note_miss(0, 2) is not None


def test_no_drain_stop_resolves_every_seated_and_queued_future():
    graph, spec = lollipop(), URWSpec(max_length=60)
    snap = from_edges([(0, 1), (1, 0)], num_vertices=2)

    async def scenario():
        service = WalkService(graph, spec, seed=2, config=config(2))
        await service.start()
        seated_and_buffered = [service.try_submit(v) for v in range(5)]
        await turns(3)
        swap = service.try_update_graph(snap)
        behind_the_swap = [service.try_submit(0) for _ in range(3)]
        await turns(2)
        await service.stop(drain=False)
        return service, seated_and_buffered + behind_the_swap, swap

    service, futures, swap = drive(scenario())
    for future in futures:
        assert future.done()
        with pytest.raises(ServeError, match="stopped before the request"):
            future.result()
    with pytest.raises(ServeError, match="graph swap"):
        swap.result()
    assert service.occupancy == 0


def test_replies_own_their_memory():
    """The slot slab is reused: a reply that were a view into it would be
    overwritten by the slot's next walker."""
    graph, spec = lollipop(), PPRSpec(alpha=0.3, max_length=20)

    async def scenario():
        async with WalkService(graph, spec, seed=8, config=config(2),
                               cache=HotWalkCache(hot_threshold=10_000)) as service:
            plain = [service.try_submit(v % RING, query_id=v) for v in range(12)]
            cached = [service.try_submit_cached(v % RING) for v in range(6)]
            return await asyncio.gather(*plain), await asyncio.gather(*cached)

    plain, cached = drive(scenario())
    oracle = replay_paths(graph, spec, {v: v % RING for v in range(12)}, seed=8)
    for query_id, results in enumerate(plain):
        assert results.path_of(0).base is None
        assert np.array_equal(results.path_of(0), oracle[query_id])
    for walk in cached:
        assert walk.path.base is None


def test_both_tenants_ledgers_book_their_hops_and_engine_time():
    """ROADMAP item 6: per-tenant ledgers used to export ``total_hops:
    0`` and ``busy_seconds: 0.0``.  After a run that served both tenants,
    whatever counter the service-wide ledger exports non-zero, each
    tenant's does too — on either dispatcher."""
    graph, spec = lollipop(), PPRSpec(alpha=0.2, max_length=20)
    tenants = [TenantSpec("gold", weight=3), TenantSpec("bronze", weight=1)]

    async def scenario(engine):
        async with WalkService(graph, spec, engine=engine, seed=4, tenants=tenants,
                               config=ServeConfig(max_batch=4, max_wait_ms=1.0,
                                                  queue_depth=64)) as service:
            futures = [service.try_submit(v % RING, tenant=tenant)
                       for v in range(20) for tenant in ("gold", "bronze")]
            await asyncio.gather(*futures)
            return service

    for engine in ("batch", "reference"):
        service = drive(scenario(engine))
        registry = service.snapshot_metrics()
        exercised = 0
        for name in ("repro_serve_requests_total", "repro_serve_hops_total",
                     "repro_serve_busy_seconds_total", "repro_serve_cache_hits_total"):
            counter = registry.get(name)
            labels = {"outcome": "completed"} if name.endswith("requests_total") else {}
            if not counter.value(**labels):
                continue
            exercised += 1
            for tenant in ("gold", "bronze"):
                assert counter.value(tenant=tenant, **labels) > 0, (engine, name, tenant)
        assert exercised == 3  # requests, hops, busy seconds; no cache here
        ledgers = service.tenant_stats
        assert sum(l.total_hops for l in ledgers.values()) == service.stats.total_hops
        assert sum(l.busy_seconds for l in ledgers.values()) == pytest.approx(
            service.stats.busy_seconds)
        for ledger in ledgers.values():
            assert sum(ledger.batch_sizes) == ledger.completed == 20
            assert ledger.snapshot()["sustained_hops_per_sec"] > 0


def test_one_step_span_per_turn():
    graph, spec = lollipop(), URWSpec(max_length=8)

    async def scenario():
        async with WalkService(graph, spec, seed=1, config=config(4)) as service:
            await asyncio.gather(*[service.try_submit(v) for v in range(6)])
            return service.stats

    with tracing(capacity=4096) as tracer:
        stats = drive(scenario())
        spans = [event for event in tracer.events() if event.name.startswith("serve.")]
    steps = [event for event in spans if event.name == "serve.step"]
    assert len(steps) == stats.supersteps
    assert {event.name for event in spans} == {"serve.step"}
    assert sum(event.args["seated"] for event in steps) == 6
    assert sum(event.args["ended"] for event in steps) == 6
    assert sum(event.args["live"] for event in steps) == stats.walker_steps
    assert all(event.args["epoch"] == 0 and event.args["live"] <= 4 for event in steps)
    assert steps[0].args["backlog"] == 2
