"""The open-frontier dispatcher, on a real ``engine="batch"`` service.

A batch engine can keep its run open, so the service seats requests
into free walker slots and steps the engine itself, one superstep per
event-loop turn — no coalescing wait, no thread.  What that buys (a short
walk does not wait for a long one) and what it must keep (failure
isolation, the ledger identity, owned replies) are held here;
determinism against ``replay_paths`` is in ``test_determinism.py``.
"""

import asyncio
import threading

import numpy as np
import pytest
from stall_helpers import NeverAccepting

from repro.errors import ReproError, SamplingError, ServeError
from repro.graph import from_edges
from repro.obs.trace import tracing
from repro.serve import ServeConfig, TenantSpec, WalkService, replay_paths
from repro.walks import PPRSpec, URWSpec
from repro.walks.batch import BatchEngine

RING = 12


def lollipop():
    """A ring 0..11 (every walk from it runs to ``max_length``) plus
    vertex 12 -> 13, 13 dangling (a walk from 12 takes one hop)."""
    edges = [(i, (i + 1) % RING) for i in range(RING)] + [(RING, RING + 1)]
    return from_edges(edges, num_vertices=RING + 2)


def drive(coro):
    return asyncio.run(coro)


def config(max_batch):
    # max_wait_ms is read by nothing: a huge one changes nothing.
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
        before = set(threading.enumerate())
        async with WalkService(lollipop(), URWSpec(max_length=5),
                               config=config(4)) as service:
            await service.submit(0)
            return set(threading.enumerate()) - before, service.stats

    started, stats = drive(scenario())
    assert started == set()
    assert stats.supersteps > 1  # batch's own frontier: one superstep a step


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


def test_group_refused_at_seating_fails_alone():
    """If the frontier refuses an admission group, nothing of it is
    seated: the group fails together, and the dispatcher carries on."""
    graph, spec = lollipop(), URWSpec(max_length=5)

    class RefusingEngine(BatchEngine):
        def open_frontier(self, seed, capacity):
            frontier = super().open_frontier(seed, capacity)
            admit = frontier.admit

            def refuse_id_30(query_ids, starts, states=None):
                if 30 in query_ids:
                    raise ReproError("injected refusal")
                return admit(query_ids, starts, states)

            frontier.admit = refuse_id_30
            return frontier

    async def scenario():
        async with WalkService(graph, spec, engine=RefusingEngine(graph, spec), seed=2,
                               config=config(4)) as service:
            futures = [service.try_submit(v, query_id=q) for v, q in ((3, 30), (1, 1))]
            outcomes = await asyncio.gather(*futures, return_exceptions=True)
            later = await service.submit(2, query_id=9)
            return outcomes, later, service

    (refused, plain), later, service = drive(scenario())
    # Seated together, refused together: admit raises before seating any.
    assert isinstance(refused, ReproError) and isinstance(plain, ReproError)
    assert later.path_of(0)[0] == 2
    stats = service.stats
    assert (stats.offered, stats.completed, stats.failed) == (3, 1, 2)
    assert service.occupancy == 0


def test_no_drain_stop_resolves_every_seated_and_queued_future():
    graph, spec = lollipop(), URWSpec(max_length=60)

    async def scenario():
        service = WalkService(graph, spec, seed=2, config=config(2))
        await service.start()
        seated_and_buffered = [service.try_submit(v) for v in range(5)]
        await turns(3)
        queued = [service.try_submit(0) for _ in range(3)]
        await turns(2)
        await service.stop(drain=False)
        return service, seated_and_buffered + queued

    service, futures = drive(scenario())
    for future in futures:
        assert future.done()
        with pytest.raises(ServeError, match="stopped before the request"):
            future.result()
    assert service.occupancy == 0


def test_replies_own_their_memory():
    """The slot slab is reused: a reply that were a view into it would be
    overwritten by the slot's next walker."""
    graph, spec = lollipop(), PPRSpec(alpha=0.3, max_length=20)

    async def scenario():
        async with WalkService(graph, spec, seed=8, config=config(2)) as service:
            return await asyncio.gather(
                *(service.try_submit(v % RING, query_id=v) for v in range(12)))

    plain = drive(scenario())
    oracle = replay_paths(graph, spec, {v: v % RING for v in range(12)}, seed=8)
    for query_id, results in enumerate(plain):
        assert results.path_of(0).base is None
        assert np.array_equal(results.path_of(0), oracle[query_id])


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
                     "repro_serve_busy_seconds_total"):
            counter = registry.get(name)
            labels = {"outcome": "completed"} if name.endswith("requests_total") else {}
            if not counter.value(**labels):
                continue
            exercised += 1
            for tenant in ("gold", "bronze"):
                assert counter.value(tenant=tenant, **labels) > 0, (engine, name, tenant)
        assert exercised == 3
        ledgers = service.tenant_stats
        assert sum(l.total_hops for l in ledgers.values()) == service.stats.total_hops
        assert sum(l.busy_seconds for l in ledgers.values()) == pytest.approx(
            service.stats.busy_seconds)
        for ledger in ledgers.values():
            assert sum(ledger.batch_sizes) == ledger.completed == 20
            assert ledger.sustained_hops_per_second() > 0


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
    assert all(event.args["live"] <= 4 for event in steps)
    assert steps[0].args["backlog"] == 2
