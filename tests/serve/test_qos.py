"""Multi-tenant QoS: admission classes, weighted dispatch, isolation.

The contracts under test: each tenant sheds at its *own* gate (a
flooding tenant cannot spend another tenant's depth), micro-batches are
composed by smooth weighted round-robin (deterministic, proportional to
weights while backlogged), and tenancy never touches walk semantics —
per-request paths stay bit-identical to the offline replay oracle under
any tenant interleaving.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.bench.workloads import make_spec
from repro.engines import prepare_engine
from repro.errors import ServeError, ServeOverloadError
from repro.graph import powerlaw, rmat
from repro.serve import (
    DEFAULT_TENANT,
    ServeConfig,
    TenantScheduler,
    TenantSpec,
    TenantTrace,
    WalkService,
    arrival_gaps,
    flash_crowd_gaps,
    replay_paths,
    run_tenant_traces,
)
from repro.walks import URWSpec, make_queries


def make_graph():
    return powerlaw(num_vertices=60, num_edges=240, seed=1, name="qos-test")


def drive(coro):
    return asyncio.run(coro)


class FakeItem:
    """Scheduler item stub: a tenant tag (or None for a pool fill)."""

    def __init__(self, tenant=None, label=None):
        if tenant is not None:
            self.tenant = tenant
        self.label = label


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ServeError):
            TenantSpec("")
        with pytest.raises(ServeError):
            TenantSpec("a", weight=0)
        with pytest.raises(ServeError):
            TenantSpec("a", queue_depth=0)
        # A gate's depth is the number passed: no field sizes it from a rate.
        with pytest.raises(TypeError):
            TenantSpec("a", rate_per_second=1.0)


class TestTenantScheduler:
    def test_rejects_empty_and_duplicate(self):
        with pytest.raises(ServeError):
            TenantScheduler((), default_depth=4)
        with pytest.raises(ServeError):
            TenantScheduler((TenantSpec("a"), TenantSpec("a")), default_depth=4)

    def test_unknown_tenant_named_in_error(self):
        scheduler = TenantScheduler((TenantSpec("a"),), default_depth=4)
        with pytest.raises(ServeError, match="unknown tenant 'z'"):
            scheduler.admit("z")

    def test_per_tenant_gates_and_total_depth(self):
        scheduler = TenantScheduler(
            (TenantSpec("a", queue_depth=2), TenantSpec("b", queue_depth=3)),
            default_depth=99)
        scheduler.admit("a")
        scheduler.admit("a")
        with pytest.raises(ServeOverloadError):
            scheduler.admit("a")
        assert scheduler.occupancy == 2, "a shed request takes no place"
        # b's gate is untouched by a's overflow.
        scheduler.admit("b")
        scheduler.release("a", 2)
        scheduler.admit("a")
        assert scheduler.occupancy == 2

    def test_occupancy_is_the_sum_of_the_tenant_gates(self):
        """The one running total tracks every tenant's gate through a
        seeded mix of admits, sheds and releases, back down to zero."""
        scheduler = TenantScheduler(
            (TenantSpec("a", queue_depth=3), TenantSpec("b", queue_depth=5),
             TenantSpec("c", queue_depth=1)),
            default_depth=99)
        rng = np.random.default_rng(12)
        for _ in range(400):
            tenant = str(rng.choice(scheduler.tenant_names))
            held = scheduler.gate(tenant).occupancy
            if held and rng.random() < 0.45:
                scheduler.release(tenant, int(rng.integers(1, held + 1)))
            else:
                try:
                    scheduler.admit(tenant)
                except ServeOverloadError:
                    pass
            assert scheduler.occupancy == sum(
                scheduler.gate(name).occupancy for name in scheduler.tenant_names)
        for name in scheduler.tenant_names:
            scheduler.release(name, scheduler.gate(name).occupancy)
        assert scheduler.occupancy == 0

    def test_an_over_release_is_refused_and_changes_nothing(self):
        scheduler = TenantScheduler(
            (TenantSpec("a", queue_depth=2), TenantSpec("b", queue_depth=2)),
            default_depth=99)
        scheduler.admit("a")
        scheduler.admit("b")
        with pytest.raises(ServeError, match="cannot release"):
            scheduler.release("a", 2)
        assert scheduler.occupancy == 2
        assert scheduler.gate("a").occupancy == 1

    def test_single_tenant_is_fifo(self):
        scheduler = TenantScheduler((TenantSpec(DEFAULT_TENANT),),
                                    default_depth=8)
        items = [FakeItem(DEFAULT_TENANT, label=i) for i in range(5)]
        for item in items:
            scheduler.push(item)
        batch = scheduler.next_batch(3)
        assert [i.label for i in batch] == [0, 1, 2]
        assert scheduler.pending_clients == 2

    def test_weighted_composition_is_proportional_and_smooth(self):
        scheduler = TenantScheduler(
            (TenantSpec("big", weight=3), TenantSpec("small", weight=1)),
            default_depth=64)
        for i in range(16):
            scheduler.push(FakeItem("big", label=f"b{i}"))
            scheduler.push(FakeItem("small", label=f"s{i}"))
        batch = scheduler.next_batch(8)
        tenants = [item.tenant for item in batch]
        assert tenants.count("big") == 6 and tenants.count("small") == 2
        # Smooth: the weight-3 tenant is interleaved, not served 6-in-a-row.
        assert tenants != ["big"] * 6 + ["small"] * 2

    def test_composition_is_deterministic(self):
        def compose():
            scheduler = TenantScheduler(
                (TenantSpec("x", weight=2), TenantSpec("y", weight=5)),
                default_depth=64)
            for i in range(20):
                scheduler.push(FakeItem("x", label=f"x{i}"))
                scheduler.push(FakeItem("y", label=f"y{i}"))
            return [item.label for item in scheduler.next_batch(14)]

        assert compose() == compose()

    def test_idle_tenant_donates_slots(self):
        scheduler = TenantScheduler(
            (TenantSpec("a", weight=1), TenantSpec("b", weight=1)),
            default_depth=64)
        for i in range(4):
            scheduler.push(FakeItem("a", label=i))
        assert [i.label for i in scheduler.next_batch(8)] == [0, 1, 2, 3]

    def test_fills_ride_along_one_per_batch(self):
        scheduler = TenantScheduler((TenantSpec("a"),), default_depth=8)
        scheduler.push(FakeItem("a", label="client"))
        scheduler.push(FakeItem(label="fill-1"))
        scheduler.push(FakeItem(label="fill-2"))
        batch = scheduler.next_batch(4)
        assert [getattr(i, "label") for i in batch] == ["client", "fill-1"]
        assert scheduler.has_work()
        assert [i.label for i in scheduler.next_batch(4)] == ["fill-2"]
        assert not scheduler.has_work()

    def test_drain_all_empties_everything(self):
        scheduler = TenantScheduler(
            (TenantSpec("a"), TenantSpec("b")), default_depth=8)
        scheduler.push(FakeItem("a"))
        scheduler.push(FakeItem("b"))
        scheduler.push(FakeItem())
        assert len(scheduler.drain_all()) == 3
        assert not scheduler.has_work()
        assert scheduler.pending_clients == 0


def pick_by_pick_batch(scheduler, max_batch, lone_picks):
    """The oracle: ``next_batch`` as one smooth-WRR pick per request —
    every pick credits each backlogged tenant its weight, takes the
    highest credit (first declared wins ties) and charges it the total —
    on the scheduler's own queues and credits.  Counts the picks made
    with one tenant backlogged into ``lone_picks[0]``."""
    batch = []
    while scheduler._pending_clients and len(batch) < max_batch:
        backlogged = [name for name in scheduler._order if scheduler._queues[name]]
        lone_picks[0] += len(backlogged) == 1
        total = sum(scheduler._specs[name].weight for name in backlogged)
        best = backlogged[0]
        for name in backlogged:
            scheduler._credit[name] += scheduler._specs[name].weight
            if scheduler._credit[name] > scheduler._credit[best]:
                best = name
        scheduler._credit[best] -= total
        batch.append(scheduler._queues[best].popleft())
        scheduler._pending_clients -= 1
    if scheduler._fills:
        batch.append(scheduler._fills.popleft())
    return batch


@pytest.mark.parametrize("seed", range(40))
def test_one_slice_for_a_lone_tenant_equals_pick_by_pick(seed):
    """``next_batch`` takes a lone backlogged tenant's run in one slice;
    over random pushes, pool fills and batch sizes it composes exactly
    the oracle's batches and leaves exactly its credits."""
    rng = np.random.default_rng(seed)
    specs = tuple(TenantSpec(f"t{k}", weight=int(rng.integers(1, 6)))
                  for k in range(int(rng.integers(1, 5))))
    fast = TenantScheduler(specs, default_depth=64)
    oracle = TenantScheduler(specs, default_depth=64)
    label = 0
    lone_picks = [0]
    for _ in range(60):
        if rng.random() < 0.5:
            # A burst from one tenant (a lone backlog once the others
            # drain) or from a mix.
            burst_tenants = rng.choice(len(specs), size=int(rng.integers(1, 4)))
            for _ in range(int(rng.integers(1, 20))):
                tenant = specs[int(rng.choice(burst_tenants))].name
                for scheduler in (fast, oracle):
                    scheduler.push(FakeItem(tenant, label=label))
                label += 1
            if rng.random() < 0.2:
                for scheduler in (fast, oracle):
                    scheduler.push(FakeItem(label=f"fill-{label}"))
                label += 1
        else:
            max_batch = int(rng.integers(1, 33))
            got = [item.label for item in fast.next_batch(max_batch)]
            want = [item.label for item in pick_by_pick_batch(oracle, max_batch, lone_picks)]
            assert got == want
            assert fast._credit == oracle._credit
            assert fast.pending_clients == oracle.pending_clients
            assert fast.backlog() == oracle.backlog()
    assert lone_picks[0] > 0


class TestServiceTenancy:
    def test_anonymous_service_keeps_old_behavior(self):
        graph = make_graph()

        async def scenario():
            async with WalkService(graph, URWSpec(max_length=5),
                                   seed=3) as service:
                assert service.tenant_names == (DEFAULT_TENANT,)
                result = await service.submit(0, query_id=0)
                assert service.tenant_stats == {}
                return result.path_of(0)

        path = drive(scenario())
        oracle = replay_paths(make_graph(), URWSpec(max_length=5), {0: 0}, seed=3)
        assert np.array_equal(path, oracle[0])

    def test_multi_tenant_requires_tenant_argument(self):
        graph = make_graph()

        async def scenario():
            tenants = (TenantSpec("a"), TenantSpec("b"))
            async with WalkService(graph, URWSpec(max_length=5),
                                   tenants=tenants) as service:
                with pytest.raises(ServeError, match="pass tenant="):
                    service.try_submit(0)
                with pytest.raises(ServeError, match="unknown tenant"):
                    service.try_submit(0, tenant="nope")

        drive(scenario())

    def test_flooding_tenant_sheds_alone(self):
        """A tenant that fills its gate sheds its own traffic; the other
        tenant keeps admitting — the admission half of isolation."""
        graph = make_graph()

        async def scenario():
            tenants = (TenantSpec("premium", weight=8, queue_depth=64),
                       TenantSpec("besteffort", weight=1, queue_depth=4))
            config = ServeConfig(max_batch=8, max_wait_ms=50.0, queue_depth=16)
            async with WalkService(graph, URWSpec(max_length=5), seed=5,
                                   tenants=tenants, config=config) as service:
                flood, shed = [], 0
                for _ in range(32):
                    try:
                        flood.append(service.try_submit(1, tenant="besteffort"))
                    except ServeOverloadError:
                        shed += 1
                assert shed > 0
                # Premium admits fine while best-effort is saturated.
                premium = [service.try_submit(2, tenant="premium")
                           for _ in range(32)]
                await asyncio.gather(*flood, *premium)
                stats = service.tenant_stats
                assert stats["besteffort"].dropped == shed
                assert stats["premium"].dropped == 0
                assert stats["premium"].offered == 32
                for ledger in stats.values():
                    assert ledger.offered == (ledger.completed + ledger.dropped
                                              + ledger.failed)

        drive(scenario())

    def test_tenant_interleaving_preserves_determinism(self):
        """Paths are keyed by (seed, query_id) only: two tenants
        interleaved under weighted dispatch replay bit-identically."""
        graph = make_graph()
        spec = URWSpec(max_length=8)

        async def scenario():
            tenants = (TenantSpec("a", weight=4), TenantSpec("b", weight=1))
            config = ServeConfig(max_batch=4, max_wait_ms=1.0, queue_depth=256)
            async with WalkService(graph, spec, seed=11, tenants=tenants,
                                   config=config) as service:
                futures = {}
                for i in range(40):
                    tenant = "a" if i % 2 == 0 else "b"
                    futures[i] = service.try_submit(i % 60, query_id=i,
                                                    tenant=tenant)
                results = {}
                for qid, future in futures.items():
                    results[qid] = (await future).path_of(0)
                return results

        served = drive(scenario())
        oracle = replay_paths(make_graph(), URWSpec(max_length=8),
                              {i: i % 60 for i in range(40)}, seed=11)
        for qid, path in served.items():
            assert np.array_equal(path, oracle[qid]), f"query {qid} diverged"

    def test_global_occupancy_spans_tenants(self):
        graph = make_graph()

        async def scenario():
            tenants = (TenantSpec("a", queue_depth=3),
                       TenantSpec("b", queue_depth=2))
            config = ServeConfig(max_batch=8, max_wait_ms=50.0, queue_depth=1)
            async with WalkService(graph, URWSpec(max_length=3),
                                   tenants=tenants, config=config) as service:
                # Global high-water is the sum of tenant depths, not the
                # anonymous config depth.
                futures = [service.try_submit(0, tenant="a") for _ in range(3)]
                futures += [service.try_submit(0, tenant="b") for _ in range(2)]
                assert service.occupancy == 5
                await asyncio.gather(*futures)
                assert service.occupancy == 0

        drive(scenario())

    @pytest.mark.slow
    def test_premium_p99_holds_under_a_flash_crowd(self):
        """Premium (weight 8) offers the same steady schedule twice:
        beside a steady best-effort tenant, and beside a best-effort flash
        crowd (a burst at 8x premium's rate behind a gate of one step).
        Premium's p99 in the second run stays within 2x of the first.
        Node2Vec of length 32 on RMAT-10, 200 requests a tenant; over 20
        runs on a 2-CPU host the median of five pairs read 0.78-1.29x.

        At these seeds the burst begins just after premium's last
        arrival: best-effort's lead quarter, at its nominal rate, outlasts
        premium's whole schedule.  So the gate holds premium's tail while
        the burst lands on its last walks in flight, and a dispatch that
        always favours best-effort still passes it; an overlapping flood
        reads 1.2-2.0x here.
        """
        graph = rmat(10, edge_factor=8, seed=1)
        spec = make_spec("Node2Vec")
        spec.max_length = 32
        max_batch, per_tenant = 32, 200
        queries = make_queries(graph, 2 * per_tenant, seed=2)
        starts = np.array([query.start_vertex for query in queries])
        # Capacity in requests/s from warmed closed runs of max_batch
        # walkers, the most the service ever steps together.
        with prepare_engine("batch", graph, spec) as engine:
            began = time.perf_counter()
            for lo in range(0, len(queries), max_batch):
                engine.run(queries[lo:lo + max_batch], seed=3)
            capacity = len(queries) / (time.perf_counter() - began)
        premium_rate = 0.4 * capacity
        besteffort_rate = min(0.5 * premium_rate, 0.08 * capacity)
        # Gate depths for offered loads of 0.45 (premium, 8/9 of capacity)
        # and 0.72 (best-effort, 1/9): max_batch * 4 * rho / (1 - rho),
        # rounded up, which holds for any measured capacity.
        depths = {"premium": 105, "besteffort": 330}
        config = ServeConfig(max_batch=max_batch, queue_depth=max(depths.values()))
        premium = TenantTrace("premium", starts[:per_tenant],
                              arrival_gaps(per_tenant, premium_rate, seed=4))
        steady = TenantTrace("besteffort", starts[per_tenant:],
                             arrival_gaps(per_tenant, besteffort_rate, seed=5))
        flood = TenantTrace("besteffort", starts[per_tenant:], flash_crowd_gaps(
            per_tenant, besteffort_rate,
            burst_multiplier=8 * premium_rate / besteffort_rate, seed=6))

        def premium_p99(besteffort, besteffort_depth):
            tenants = (TenantSpec("premium", weight=8, queue_depth=depths["premium"]),
                       TenantSpec("besteffort", weight=1, queue_depth=besteffort_depth))

            async def scenario():
                async with WalkService(graph, spec, seed=3, config=config,
                                       tenants=tenants) as service:
                    reports = await run_tenant_traces(service, [premium, besteffort])
                return reports, service.tenant_stats

            reports, stats = drive(scenario())
            for report in reports.values():
                report.check_identity()
            if besteffort is flood:
                assert reports["besteffort"].dropped, "the burst never filled its gate"
            return stats["premium"].latency_percentiles()["p99"]

        # A p99 of 200 latencies sits between the second- and third-worst,
        # so one host hiccup can double it (or, by bunching arrivals, shed
        # a few premium requests: which tenant sheds is
        # test_flooding_tenant_sheds_alone's gate).  The gate reads the
        # median of five back-to-back (steady, flash crowd) pairs.
        ratios = [premium_p99(flood, max_batch) / premium_p99(steady, depths["besteffort"])
                  for _ in range(5)]
        assert np.median(ratios) <= 2, ratios
