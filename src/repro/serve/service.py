"""Asyncio walk service: open-queue ingest over a prepared engine.

Serving is an *open* system — requests arrive one at a time,
continuously — and the engines in :mod:`repro.engines` answer *closed*
runs: every query known up front, one ``WalkResults`` back.  The service
sits between the two with one dispatcher, :mod:`repro.serve.frontier`,
over the frontier the engine opens
(:meth:`~repro.engines.PreparedEngine.open_frontier`).  RidgeWalker's
argument is that a walk is a chain of stateless ``(query, step,
v_last)`` tasks with no batch boundary, so a lane freed by a finished
walk takes the next query at once; the dispatcher is that, in software.
Each event-loop turn it drains the queue into the tenant scheduler,
seats ``scheduler.next_batch(free)`` into the frontier's free slots
(``max_batch`` slots), steps the frontier once, resolves every walk that
ended and yields — no coalescing wait, no thread.  ``batch``'s frontier
steps one superstep at a time, walkers of any age (MetaPath's included)
sharing it, so a short walk never waits for the longest one; every
other engine (``reference``, test doubles, proxies) gets a
:class:`~repro.walks.engine.RunFrontier`, whose step is one closed
``run`` of everything seated.  An idle service blocks on its queue.

A request is one slotted record (:class:`_PendingRequest`, its own
query) from submission to reply, and the dispatcher books what one step
finished in one pass (``WalkService._resolve`` / ``_fail``).  What that
is worth on ``benchmarks/suite``'s ``serve_poisson`` (PPR on RMAT-16,
``max_batch=64``; 2-core host, medians of ten alternating runs, seed 1):
saturated throughput 308k -> 366k hops/s against per-request records and
booking, with p50 at 4000 req/s unchanged at 0.63 ms; closed
micro-batches on an executor thread, the dispatcher this one replaced,
had read 180k hops/s and 4.96 ms on the same engine.  The README's
serving section has the table.

On top of that, the service is (optionally) **multi-tenant**: each
:class:`~repro.serve.qos.TenantSpec` gets its own admission gate and a
weighted-priority share of every admission group
(:class:`~repro.serve.qos.TenantScheduler`), so a flooding tenant sheds
its own traffic instead of starving other tenants' latency SLOs.

The service is a scheduling layer, never a semantics layer.  Every
request's randomness is keyed by ``SeedSequence((seed, query_id))`` —
the engines' own per-query substream derivation — and a walker draws
only from the stream state that travels with it, so a request's paths
are bit-identical whether it was served alone, beside 63 strangers of
any age, or replayed offline through the engine's own ``run`` with the
same seed.  Who shares a step with whom and tenant interleaving cannot
change a single vertex; ``tests/serve/`` holds the service to that.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engines import PreparedEngine, prepare_engine
from repro.errors import GraphError, ServeError, ServeOverloadError
from repro.graph.csr import CSRGraph
from repro.obs.metrics import MetricsRegistry, engine_stats_into, serve_stats_into
from repro.obs.trace import active as _active_tracer
from repro.sampling.base import normalize_seed
from repro.sampling.hybrid import require_default
from repro.serve.frontier import frontier_loop
from repro.serve.items import _PendingRequest
from repro.serve.qos import DEFAULT_TENANT, TenantScheduler, TenantSpec
from repro.serve.stats import ServeStats
from repro.walks.base import WalkBatch, WalkResults, WalkSpec, walk_index
from repro.walks.engine import EngineStats


@dataclass(frozen=True)
class ServeConfig:
    """Dispatch and admission knobs.

    ``max_batch``
        Walkers that may share one engine step: the frontier's slot count.
    ``max_wait_ms``
        Accepted and validated, and read by no dispatcher: the frontier
        seats a request the turn it arrives, so there is no coalescing
        wait for it to bound.
    ``queue_depth``
        Admission high-water: requests outstanding (queued, seated or
        executing) beyond which new arrivals are shed with
        ``ServeOverloadError``.  With tenants declared, this is the
        depth of every tenant gate whose spec leaves ``queue_depth``
        unset.
    """

    max_batch: int = 64
    max_wait_ms: float = 2.0
    queue_depth: int = 256

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ServeError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_depth < 1:
            raise ServeError(f"queue_depth must be >= 1, got {self.queue_depth}")


class WalkService:
    """Open-queue walk server over a prepared engine.

    Lifecycle: ``await start()`` (or ``async with``), then any number of
    ``await submit(...)`` / ``try_submit(...)`` calls from the event
    loop, then ``await stop()`` — which by default drains everything
    already admitted before tearing down the dispatcher and the prepared
    engine.

    ``engine`` is a registry name (``"batch"`` or ``"reference"`` — any
    key of :data:`repro.engines.SOFTWARE_ENGINES`) resolved through
    :func:`repro.engines.prepare_engine`, or an already-constructed
    :class:`~repro.engines.PreparedEngine`; either way the service owns
    it and closes it on :meth:`stop`.  A stopped service can
    :meth:`start` again on the same object: every engine runs after
    ``close``.

    ``tenants`` declares the admission classes of a multi-tenant
    service (see :mod:`repro.serve.qos`); requests then carry a
    ``tenant=`` name and per-tenant ledgers appear in
    :attr:`tenant_stats`.  Without it the service runs one anonymous
    class, exactly as before.
    """

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        engine: str | PreparedEngine = "batch",
        seed: int = 0,
        config: ServeConfig | None = None,
        tenants: Sequence[TenantSpec] | None = None,
    ) -> None:
        self._config = config or ServeConfig()
        self._seed = normalize_seed(seed)
        # A dynamic GraphSnapshot may stand in for the graph; the service
        # serves its CSR, and the engine reads the snapshot's sampler state.
        snapshot, graph = graph, getattr(graph, "graph", graph)
        if isinstance(engine, PreparedEngine):
            self._runner = engine
        else:
            self._runner = prepare_engine(engine, snapshot, spec)
        self._num_vertices = graph.num_vertices
        self.stats = ServeStats()
        self.engine_stats = EngineStats()
        specs = tuple(tenants) if tenants else (TenantSpec(DEFAULT_TENANT),)
        self._scheduler = TenantScheduler(specs, self._config.queue_depth)
        #: The tenant a request without ``tenant=`` belongs to: the only
        #: one declared, else None (the caller must name one).
        self._sole_tenant = specs[0].name if len(specs) == 1 else None
        #: Per-tenant ledgers; populated only for explicitly declared
        #: tenants (an anonymous service keeps one global ledger).
        self.tenant_stats: dict[str, ServeStats] = (
            {spec.name: ServeStats() for spec in specs} if tenants else {}
        )
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._drained: asyncio.Event | None = None
        self._next_query_id = 0
        self._accepting = False

    @property
    def engine_name(self) -> str:
        return self._runner.name

    @property
    def occupancy(self) -> int:
        """Requests admitted and not yet resolved."""
        return self._scheduler.occupancy

    def snapshot_metrics(
        self, registry: MetricsRegistry | None = None
    ) -> MetricsRegistry:
        """Export every ledger this service keeps as a metrics registry.

        Builds (or extends) a :class:`~repro.obs.metrics.MetricsRegistry`
        from the global :class:`~repro.serve.stats.ServeStats` ledger,
        the per-tenant ledgers (labelled ``tenant="..."``), the merged
        engine counters, and point-in-time gauges (occupancy, per-tenant
        backlog).  The export copies the ledgers exactly, so the
        accounting identity ``offered == completed + dropped + failed``
        holds per tenant on the exported counters whenever it holds on
        the ledgers; render
        it with
        :func:`repro.obs.exporters.render_prometheus` or
        :func:`repro.obs.exporters.write_jsonl`.  Safe to call at any
        point in the service lifecycle — it only reads.
        """
        registry = registry if registry is not None else MetricsRegistry()
        serve_stats_into(registry, self.stats)
        for name in sorted(self.tenant_stats):
            serve_stats_into(registry, self.tenant_stats[name], tenant=name)
        engine_stats_into(registry, self.engine_stats, engine=self.engine_name)
        registry.gauge(
            "repro_serve_occupancy", "Requests admitted and not yet resolved",
        ).set(self.occupancy)
        backlog = registry.gauge(
            "repro_serve_backlog",
            "Buffered client requests awaiting batch composition",
        )
        for tenant, depth in self._scheduler.backlog().items():
            backlog.set(depth, tenant=tenant)
        return registry

    async def start(self) -> None:
        """Bring up the dispatcher; idempotent while running."""
        if self._accepting:
            return
        self._queue = asyncio.Queue()
        self._drained = asyncio.Event()
        self._drained.set()
        frontier = self._runner.open_frontier(self._seed, self._config.max_batch)
        self._dispatcher = asyncio.create_task(frontier_loop(self, frontier))
        self._accepting = True

    async def stop(self, drain: bool = True) -> None:
        """Tear the service down.

        With ``drain`` (the default), already-admitted requests are
        executed and resolved first; without it, the dispatcher is
        cancelled immediately and unexecuted requests get
        :class:`ServeError` so no caller hangs on a future that will
        never resolve.
        """
        if self._queue is None:
            # Never started (or already stopped): the prepared engine was
            # still built eagerly in __init__, so release it.  Engine
            # close is idempotent.
            self._runner.close()
            return
        self._accepting = False
        if drain:
            await self._drained.wait()
        assert self._dispatcher is not None
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        # Requests only remain on a no-drain stop (the drained event
        # guarantees none otherwise): fail their futures so no caller
        # hangs.
        abandoned: Counter[str] = Counter()
        while not self._queue.empty():
            request = self._queue.get_nowait()
            if not request.future.done():
                request.future.set_exception(
                    ServeError("service stopped before the request executed")
                )
            abandoned[request.tenant] += 1
        for tenant, count in abandoned.items():
            self._release(tenant, count)
        self._runner.close()
        self._queue = None
        self._dispatcher = None

    async def __aenter__(self) -> "WalkService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def _resolve_tenant(self, tenant: str | None) -> str:
        if tenant is None:
            if self._sole_tenant is not None:
                return self._sole_tenant
            raise ServeError(
                f"this service declares tenants {list(self._scheduler.tenant_names)}; "
                f"pass tenant="
            )
        self._scheduler.gate(tenant)  # raises ServeError on unknown names
        return tenant

    def _require_running(self) -> None:
        if not self._accepting or self._queue is None:
            raise ServeError("service is not running; use 'async with' or start()")

    def _check_vertex(self, start_vertex: int) -> None:
        if start_vertex >= self._num_vertices:
            raise GraphError(
                f"vertex {start_vertex} out of range for graph with "
                f"{self._num_vertices} vertices"
            )

    def _admit(self, tenant: str, start_vertex: int) -> None:
        """Validate and count one request into its tenant's gate."""
        self._check_vertex(start_vertex)
        try:
            self._scheduler.admit(tenant)
        except ServeOverloadError:
            self.stats.record_drop()
            tenant_stats = self.tenant_stats.get(tenant)
            if tenant_stats is not None:
                tenant_stats.record_drop()
            tracer = _active_tracer()
            if tracer is not None:
                tracer.instant("serve.shed", tenant=tenant)
            raise

    def _enqueue(self, request: _PendingRequest) -> None:
        assert self._drained is not None and self._queue is not None
        self._drained.clear()
        self.stats.record_submit(request.submitted_at)
        tenant_stats = self.tenant_stats.get(request.tenant)
        if tenant_stats is not None:
            tenant_stats.record_submit(request.submitted_at)
        self._queue.put_nowait(request)

    def try_submit(
        self, start_vertex: int, query_id: int | None = None,
        tenant: str | None = None,
    ) -> asyncio.Future:
        """Admit one walk request; return the future of its results.

        Sheds with :class:`~repro.errors.ServeOverloadError` past the
        tenant's admission high-water (the error carries the observed
        occupancy).  ``query_id`` defaults to a monotonically assigned
        id; pass one explicitly (any non-negative int64) to make the
        request replayable offline by ``(service seed, query_id)``.
        ``tenant`` selects the admission class on a multi-tenant service
        (mandatory there, ignored-by-default on an anonymous one).
        """
        self._require_running()
        tenant = self._resolve_tenant(tenant)
        # Validate before admitting: a request that can only fail must be
        # rejected here, at its own call site, not discovered mid-batch
        # where the engine error would poison co-batched requests.
        query_id = walk_index(self._next_query_id if query_id is None else query_id, "query_id")
        start_vertex = walk_index(start_vertex, "start_vertex")
        self._admit(tenant, start_vertex)
        # Only advance the auto-id counter for admitted requests, and keep
        # it ahead of explicit ids so mixed usage cannot collide.
        self._next_query_id = max(self._next_query_id, query_id + 1)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._enqueue(_PendingRequest(query_id, start_vertex, future, loop.time(), tenant))
        return future

    async def submit(
        self, start_vertex: int, query_id: int | None = None,
        tenant: str | None = None,
    ) -> WalkResults:
        """Admit one request and await its :class:`WalkResults` slice."""
        return await self.try_submit(start_vertex, query_id=query_id, tenant=tenant)

    def _release(self, tenant: str, count: int = 1) -> None:
        """Return ``count`` closed requests' places to their tenant's gate."""
        assert self._drained is not None
        self._scheduler.release(tenant, count)
        if self._scheduler.occupancy == 0:
            self._drained.set()

    def _resolve(self, requests: list[_PendingRequest], paths: list[np.ndarray],
                 busy: list[float], now: float) -> None:
        """Book the requests one frontier step finished, in one pass.

        The dispatcher ends every step here.  Request ``k`` resolves with
        ``paths[k]`` (which it now owns) and is charged ``busy[k]`` engine
        seconds; each ledger books the turn's completions in one call,
        each tenant's ledger its hops and engine time, and each tenant's
        places in the gates are released together.
        """
        if not requests:
            return
        latencies = []
        for request, path in zip(requests, paths):
            future = request.future
            if not future.done():
                future.set_result(WalkResults.from_path(path))
            latencies.append(now - request.submitted_at)
        self.stats.record_completions(latencies, now)
        if not self.tenant_stats:
            # Anonymous: every request is the one default tenant's.
            self._release(self._sole_tenant, len(requests))
            return
        by_tenant: dict[str, list[int]] = {}
        for k, request in enumerate(requests):
            by_tenant.setdefault(request.tenant, []).append(k)
        for tenant, positions in by_tenant.items():
            ledger = self.tenant_stats[tenant]
            ledger.record_completions([latencies[k] for k in positions], now)
            ledger.record_service(sum(paths[k].size - 1 for k in positions),
                                  sum(busy[k] for k in positions))
            self._release(tenant, len(positions))

    def _fail(self, requests: list[_PendingRequest], error: Exception, now: float) -> None:
        """Resolve admitted requests with the engine's exception: booked
        failed, and their places released, per tenant."""
        if not requests:
            return
        for request in requests:
            if not request.future.done():
                request.future.set_exception(error)
        self.stats.record_failure(now, len(requests))
        for tenant, count in Counter(request.tenant for request in requests).items():
            tenant_stats = self.tenant_stats.get(tenant)
            if tenant_stats is not None:
                tenant_stats.record_failure(now, count)
            self._release(tenant, count)

    def _record_tenant_admission(self, clients: Sequence[_PendingRequest]) -> None:
        """Each tenant's batch-shape ledger records its share of one
        admission group (the service-wide one records it whole)."""
        if self.tenant_stats:
            for tenant, count in Counter(r.tenant for r in clients).items():
                self.tenant_stats[tenant].record_admission(count)


def replay_paths(
    graph: CSRGraph,
    spec: WalkSpec,
    requests: dict[int, int],
    seed: int,
    sampler: str = "default",
) -> dict[int, np.ndarray]:
    """Offline oracle for served requests: ``{query_id: path}``.

    Runs ``{query_id: start_vertex}`` through ``run_walks_batch`` with
    the service seed, in one closed batch.  A correct ``batch``-served
    service returns exactly these paths regardless of how its frontier
    happened to slice the request stream — the determinism contract the
    serve tests and the CI smoke assert.  ``sampler`` accepts only
    ``"default"``: every engine runs the spec's own kernel.
    """
    from repro.walks.batch import run_walks_batch

    require_default("sampler", sampler)
    ids = sorted(requests)
    results = run_walks_batch(graph, spec, WalkBatch(ids, [requests[i] for i in ids]), seed=seed)
    return dict(zip(ids, results.paths))
