"""Workload generators and the open-loop driver's failure accounting.

Covers the scenario generators (Poisson, flash-crowd piecewise
rates), the ``run_open_loop`` regression — a
failed micro-batch costs exactly its own requests, never the report —
its pacing from absolute due times, and the multi-tenant trace driver's
id disjointness.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.engines import PreparedEngine
from repro.errors import ReproError, WalkConfigError
from repro.graph import powerlaw
from repro.serve import (
    SCENARIOS,
    ServeConfig,
    TenantSpec,
    TenantTrace,
    WalkService,
    arrival_gaps,
    flash_crowd_gaps,
    replay_paths,
    run_open_loop,
    run_tenant_traces,
    scenario_gaps,
)
from repro.walks import URWSpec, WalkResults


def make_graph():
    return powerlaw(num_vertices=60, num_edges=240, seed=1, name="wl-test")


def drive(coro):
    return asyncio.run(coro)


class TestGenerators:
    def test_flash_crowd_burst_is_faster(self):
        gaps = flash_crowd_gaps(400, nominal_rate=100.0, burst_multiplier=10.0,
                                burst_fraction=0.5, seed=5)
        assert gaps.size == 400
        lead, burst, tail = gaps[:100], gaps[100:300], gaps[300:]
        # The burst's mean gap is close to 10x shorter than nominal's.
        assert burst.mean() < 0.3 * lead.mean()
        assert burst.mean() < 0.3 * tail.mean()

    def test_flash_crowd_validation(self):
        with pytest.raises(WalkConfigError):
            flash_crowd_gaps(10, 0.0)
        with pytest.raises(WalkConfigError):
            flash_crowd_gaps(10, 10.0, burst_multiplier=0.5)
        with pytest.raises(WalkConfigError):
            flash_crowd_gaps(10, 10.0, burst_fraction=0.0)

    def test_scenario_gaps_dispatch(self):
        for scenario in SCENARIOS:
            gaps = scenario_gaps(scenario, 50, 100.0, seed=1)
            assert gaps.size == 50
        # steady == plain Poisson; zero rate degenerates to saturation.
        assert np.array_equal(scenario_gaps("steady", 50, 100.0, seed=1),
                              arrival_gaps(50, 100.0, seed=1))
        assert (scenario_gaps("flash-crowd", 50, 0.0) == 0).all()
        with pytest.raises(WalkConfigError):
            scenario_gaps("tsunami", 50, 100.0)


class HalfFailEngine(PreparedEngine):
    """Fails every other micro-batch: the failure-accounting stressor."""

    name = "half-fail"

    def __init__(self):
        self.calls = 0

    def run(self, queries, seed=0, stats=None):
        self.calls += 1
        if self.calls % 2 == 1:
            raise ReproError("injected batch failure")
        results = WalkResults()
        for query in queries:
            results.add_path([query.start_vertex, query.query_id])
        return results

    def close(self):
        pass


class TestRunOpenLoopFailures:
    def test_failed_batch_costs_only_its_requests(self):
        """Regression: one failed future used to raise out of the
        collection loop, losing the whole report — completed paths,
        drop records, elapsed time and all."""
        graph = make_graph()

        async def scenario():
            config = ServeConfig(max_batch=4, max_wait_ms=0.5, queue_depth=64)
            async with WalkService(graph, URWSpec(max_length=4),
                                   engine=HalfFailEngine(),
                                   config=config) as service:
                report = await run_open_loop(
                    service, np.arange(16, dtype=np.int64) % 60)
                return report, service.stats

        report, stats = drive(scenario())
        assert report.failed  # some batches raised...
        assert report.paths   # ...and the survivors' paths are intact
        assert report.elapsed_seconds > 0
        report.check_identity()
        # The service ledger agrees with the client's view.
        assert stats.failed == len(report.failed)
        assert stats.offered == stats.completed + stats.dropped + stats.failed

    def test_gap_length_mismatch_rejected(self):
        graph = make_graph()

        async def scenario():
            async with WalkService(graph, URWSpec(max_length=4)) as service:
                with pytest.raises(WalkConfigError, match="gaps length"):
                    await run_open_loop(service, np.zeros(4, dtype=np.int64),
                                        gaps=np.zeros(3))

        drive(scenario())


class TestRunOpenLoopPacing:
    def test_a_late_generator_submits_everything_already_due(self):
        """The offered rate must not depend on how fast the loop turns:
        a dispatcher that steps the engine on the generator's loop makes
        every turn cost a superstep, and a sleep per gap (two turns
        each) once offered a 10 us-gap burst at one request per two
        supersteps."""
        graph = make_graph()
        requests = 120

        async def scenario():
            turns = 0
            running = True

            async def busy_loop():
                # Stands in for the frontier dispatcher: every loop turn
                # costs 200 us, twenty times the requested gap.
                nonlocal turns
                while running:
                    turns += 1
                    time.sleep(200e-6)
                    await asyncio.sleep(0)

            config = ServeConfig(max_batch=8, max_wait_ms=0.5,
                                 queue_depth=requests)
            async with WalkService(graph, URWSpec(max_length=4),
                                   engine="reference",
                                   config=config) as service:
                neighbour = asyncio.ensure_future(busy_loop())
                submitted_by = []
                submit = service.try_submit

                def stamped(*args, **kwargs):
                    submitted_by.append(turns)
                    return submit(*args, **kwargs)

                service.try_submit = stamped
                report = await run_open_loop(
                    service, np.arange(requests, dtype=np.int64) % 60,
                    gaps=np.full(requests, 10e-6))
                running = False
                await neighbour
            return report, submitted_by

        report, submitted_by = drive(scenario())
        report.check_identity()
        assert report.completed == requests
        # 120 requests due within 1.2 ms: a handful of 200 us turns, not
        # the 240 a sleep per gap would need.
        assert submitted_by[-1] - submitted_by[0] <= 12


class TestTenantTraces:
    def test_disjoint_ids_and_per_tenant_reports(self):
        graph = make_graph()
        spec = URWSpec(max_length=5)

        async def scenario():
            tenants = (TenantSpec("a", weight=2), TenantSpec("b"))
            config = ServeConfig(max_batch=8, max_wait_ms=0.5, queue_depth=256)
            async with WalkService(graph, spec, seed=13, tenants=tenants,
                                   config=config) as service:
                traces = [
                    TenantTrace("a", np.arange(10, dtype=np.int64),
                                arrival_gaps(10, 0.0)),
                    TenantTrace("b", np.arange(10, 20, dtype=np.int64),
                                arrival_gaps(10, 0.0)),
                ]
                return await run_tenant_traces(service, traces, id_stride=1000)

        reports = drive(scenario())
        assert set(reports) == {"a", "b"}
        ids_a = set(reports["a"].requests)
        ids_b = set(reports["b"].requests)
        assert not ids_a & ids_b
        assert ids_a == set(range(10))
        assert ids_b == set(range(1000, 1010))
        for report in reports.values():
            report.check_identity()
        # The union replays offline as one batch.
        merged_requests, merged_paths = {}, {}
        for report in reports.values():
            merged_requests.update(report.requests)
            merged_paths.update(report.paths)
        oracle = replay_paths(make_graph(), URWSpec(max_length=5),
                              merged_requests, seed=13)
        for qid, path in merged_paths.items():
            assert np.array_equal(path, oracle[qid])

    def test_oversized_trace_rejected(self):
        graph = make_graph()

        async def scenario():
            async with WalkService(graph, URWSpec(max_length=4)) as service:
                traces = [TenantTrace("default",
                                      np.zeros(5, dtype=np.int64),
                                      arrival_gaps(5, 0.0))]
                with pytest.raises(WalkConfigError, match="id_stride"):
                    await run_tenant_traces(service, traces, id_stride=4)

        drive(scenario())

    def test_empty_traces_rejected(self):
        graph = make_graph()

        async def scenario():
            async with WalkService(graph, URWSpec(max_length=4)) as service:
                with pytest.raises(WalkConfigError):
                    await run_tenant_traces(service, [])

        drive(scenario())
