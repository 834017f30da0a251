"""One booking pass per dispatcher turn, and ids checked before admission.

The dispatcher books what a frontier step finished — a superstep's ended
walks, or a closed run's requests — in one pass
(``WalkService._resolve`` / ``_fail``): one completion booking per
ledger, one engine-time and hop booking per tenant, one gate release per
tenant.  The oracle here is the per-request booking that pass replaced,
fed the very same turns: every ledger must come out equal, on either
kind of frontier, anonymous or with three weighted tenants, through a
turn that raises.
"""

import ast
import asyncio
import re
from pathlib import Path

import numpy as np
import pytest

from repro.engines import PreparedEngine
from repro.errors import ReproError, WalkConfigError
from repro.graph import powerlaw
from repro.serve import ServeConfig, TenantSpec, WalkService, replay_paths
from repro.serve.stats import ServeStats
from repro.walks import PPRSpec
from repro.walks.batch import BatchEngine

# Frontier-served: the superstep after ``armed`` is set raises once.
from test_frontier_dispatch import FlakyKernelEngine

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
SEED = 3
GRAPH = powerlaw(num_vertices=60, num_edges=240, seed=1, name="turn-booking")
SPEC = PPRSpec(alpha=0.15, max_length=20)
HOT = int(np.flatnonzero(GRAPH.degrees() > 0)[0])

#: (tenant specs, or None for an anonymous service)
TENANCIES = {
    "anonymous": None,
    "one": (TenantSpec("solo", weight=3),),
    "three": (TenantSpec("a", weight=1), TenantSpec("b", weight=2), TenantSpec("c", weight=5)),
}


class FlakyRunEngine(PreparedEngine):
    """Served through a ``RunFrontier`` (``run`` only): the run after
    ``armed`` is set raises once."""

    name = "flaky-run"

    def __init__(self, graph, spec):
        self.inner = BatchEngine(graph, spec)
        self.armed = False

    def run(self, queries, seed=0, stats=None):
        if self.armed:
            self.armed = False
            raise ReproError("injected run failure")
        return self.inner.run(queries, seed=seed, stats=stats)


def per_request_oracle(service):
    """Ledgers booked one request at a time, as the service did before
    its turns were booked whole, from every turn the service books."""
    oracle = {None: ServeStats(), **{name: ServeStats() for name in service.tenant_stats}}
    resolve, fail = service._resolve, service._fail

    def spy_resolve(requests, paths, busy, now):
        for request, path, seconds in zip(requests, paths, busy):
            latency = now - request.submitted_at
            oracle[None].record_completions([latency], now)
            ledger = oracle.get(request.tenant)
            if ledger is not None:
                ledger.record_completions([latency], now)
                ledger.record_service(path.size - 1, seconds)
        resolve(requests, paths, busy, now)

    def spy_fail(requests, error, now):
        for request in requests:
            oracle[None].record_failure(now)
            if request.tenant in oracle:
                oracle[request.tenant].record_failure(now)
        fail(requests, error, now)

    service._resolve, service._fail = spy_resolve, spy_fail
    return oracle


async def burst(service, engine, names):
    """Forty requests, a failing turn once the service is under way, then
    forty more; returns ``{query_id: (tenant, start, outcome)}``."""
    rng = np.random.default_rng(9)
    submitted = {}

    def wave(ids):
        for query_id in ids:
            tenant = names[query_id % len(names)]
            start = int(rng.integers(GRAPH.num_vertices))
            future = service.try_submit(start, query_id=query_id, tenant=tenant)
            submitted[query_id] = (tenant, start, future)

    wave(range(40))
    first = submitted[0][2]
    while not first.done():
        await asyncio.sleep(0)
    engine.armed = True
    wave(range(40, 80))
    outcomes = await asyncio.gather(*(future for _, _, future in submitted.values()),
                                    return_exceptions=True)
    return {query_id: (tenant, start, outcome) for (query_id, (tenant, start, _)), outcome
            in zip(submitted.items(), outcomes)}


@pytest.mark.parametrize("dispatcher", ["frontier", "run-only"])
@pytest.mark.parametrize("tenancy", list(TENANCIES))
def test_turn_booking_equals_per_request_booking(dispatcher, tenancy):
    specs = TENANCIES[tenancy]
    names = [spec.name for spec in specs] if specs else [None]
    engine = (FlakyKernelEngine if dispatcher == "frontier" else FlakyRunEngine)(GRAPH, SPEC)

    async def scenario():
        service = WalkService(GRAPH, SPEC, engine=engine, seed=SEED, tenants=specs,
                              config=ServeConfig(max_batch=8, max_wait_ms=1.0, queue_depth=512))
        oracle = per_request_oracle(service)
        async with service:
            served = await burst(service, engine, names)
        return service, oracle, served

    service, oracle, served = asyncio.run(scenario())
    # Either frontier is stepped by the one dispatcher.
    assert service.stats.supersteps > 0

    # Booked per turn == booked per request, ledger by ledger.
    for tenant, expected in oracle.items():
        ledger = service.stats if tenant is None else service.tenant_stats[tenant]
        assert ledger.completed == expected.completed, tenant
        assert ledger.failed == expected.failed, tenant
        assert ledger.latencies == expected.latencies, tenant
        assert ledger.last_completion == expected.last_completion, tenant
        assert ledger.offered == ledger.completed + ledger.dropped + ledger.failed, tenant
        if tenant is not None:
            assert ledger.total_hops == expected.total_hops, tenant
            assert ledger.busy_seconds == pytest.approx(expected.busy_seconds, rel=1e-9), tenant
            assert ledger.busy_seconds > 0, tenant

    # ... and both agree with what the callers got.
    failures = {name: 0 for name in names}
    completions = dict(failures)
    hops = dict(failures)
    requests = {}
    for query_id, (tenant, start, outcome) in served.items():
        if isinstance(outcome, ReproError):
            failures[tenant] += 1
            continue
        completions[tenant] += 1
        hops[tenant] += outcome.total_steps
        requests[query_id] = (start, outcome.path_of(0))
    assert sum(failures.values()) > 0, "the armed turn failed nothing"
    assert service.stats.failed == sum(failures.values())
    assert service.stats.completed == sum(completions.values())
    for tenant in service.tenant_stats:
        ledger = service.tenant_stats[tenant]
        assert (ledger.completed, ledger.failed, ledger.total_hops) == (
            completions[tenant], failures[tenant], hops[tenant])

    # Gates drained, and every served path replays exactly.
    assert service.occupancy == 0
    scheduler = service._scheduler
    assert {scheduler.gate(name).occupancy for name in scheduler.tenant_names} == {0}
    oracle_paths = replay_paths(GRAPH, SPEC, {qid: start for qid, (start, _) in requests.items()},
                                seed=SEED, sampler="default")
    for query_id, (_, path) in requests.items():
        assert np.array_equal(path, oracle_paths[query_id]), query_id
        assert path.base is None


#: An id that is not a non-negative int64, the call that offers it, and
#: the value its error names.
BAD_IDS = [
    ("start 1.5", lambda service: service.try_submit(1.5), 1.5),
    ("start True", lambda service: service.try_submit(True), True),
    ("start '7'", lambda service: service.try_submit("7"), "7"),
    ("start np.float64", lambda service: service.try_submit(np.float64(3.0)), np.float64(3.0)),
    ("query_id 2.5", lambda service: service.try_submit(0, query_id=2.5), 2.5),
    ("query_id False", lambda service: service.try_submit(0, query_id=False), False),
    ("query_id 2**63", lambda service: service.try_submit(0, query_id=2**63), 2**63),
    ("start 2**63", lambda service: service.try_submit(2**63), 2**63),
]


@pytest.mark.parametrize("engine", ["batch", "reference"])
@pytest.mark.parametrize("case", BAD_IDS, ids=[case[0] for case in BAD_IDS])
def test_a_non_integral_id_is_refused_before_admission(case, engine):
    _, call, value = case

    async def scenario():
        async with WalkService(GRAPH, SPEC, engine=engine, seed=SEED) as service:
            await service.submit(1, query_id=0)
            before = (service.occupancy, service.stats.offered, service._next_query_id)
            with pytest.raises(WalkConfigError, match=re.escape(f"got {value!r}")):
                call(service)
            after = (service.occupancy, service.stats.offered, service._next_query_id)
            return before, after, service.stats

    before, after, stats = asyncio.run(scenario())
    assert before == after == (0, 1, 1)
    assert stats.dropped == 0 and stats.offered == stats.completed == 1


def test_a_numpy_integer_request_replays_like_an_int_one():
    async def serve(start, query_id):
        async with WalkService(GRAPH, SPEC, engine="batch", seed=SEED) as service:
            result = await service.submit(start, query_id=query_id)
            auto = await service.submit(start)  # takes the id after the explicit one
            return result.path_of(0), auto.path_of(0), service._next_query_id

    as_numpy = asyncio.run(serve(np.int64(HOT), np.int64(7)))
    as_int = asyncio.run(serve(HOT, 7))
    oracle = replay_paths(GRAPH, SPEC, {7: HOT, 8: HOT}, seed=SEED)
    for paths in (as_numpy, as_int):
        assert np.array_equal(paths[0], oracle[7]) and np.array_equal(paths[1], oracle[8])
        assert type(paths[2]) is int and paths[2] == 9


def test_an_id_past_2_to_the_40_is_a_client_id_like_any_other():
    """Every non-negative int64 is a client id: one at 2**40 + 5 is
    served, the auto id after it too, and both replay offline."""
    query_id = 2**40 + 5

    async def serve():
        async with WalkService(GRAPH, SPEC, engine="batch", seed=SEED) as service:
            explicit = await service.submit(HOT, query_id=query_id)
            auto = await service.submit(HOT)
            return explicit.path_of(0), auto.path_of(0)

    explicit, auto = asyncio.run(serve())
    oracle = replay_paths(GRAPH, SPEC, {query_id: HOT, query_id + 1: HOT}, seed=SEED)
    assert np.array_equal(explicit, oracle[query_id])
    assert np.array_equal(auto, oracle[query_id + 1])


def test_an_auto_id_past_int64_is_refused_before_admission():
    async def scenario():
        async with WalkService(GRAPH, SPEC, engine="batch", seed=SEED) as service:
            await service.submit(HOT, query_id=2**63 - 1)
            with pytest.raises(WalkConfigError, match="query_id must fit in int64"):
                service.try_submit(HOT)
            return service.stats

    stats = asyncio.run(scenario())
    assert stats.offered == stats.completed == 1


def _constructs_query_or_adds_paths(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "Query":
                found.append(f"Query( at line {node.lineno}")
            if isinstance(func, ast.Attribute) and func.attr == "add_path":
                found.append(f".add_path( at line {node.lineno}")
    return found


def test_no_query_and_no_add_path_on_the_request_path():
    """A request is one record from submission to reply: ``try_submit``
    and the frontier dispatcher build no ``Query`` and grow no result
    path by path; the per-request ``_complete`` is gone."""
    service = ast.parse((SRC / "serve" / "service.py").read_text())
    functions = {node.name: node for node in ast.walk(service)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for name in ("try_submit", "_resolve"):
        assert _constructs_query_or_adds_paths(functions[name]) == [], name
    assert "_complete" not in functions
    frontier = ast.parse((SRC / "serve" / "frontier.py").read_text())
    assert _constructs_query_or_adds_paths(frontier) == []
