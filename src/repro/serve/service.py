"""Asyncio walk service: open-queue ingest over a prepared engine.

Serving is an *open* system — requests arrive one at a time,
continuously — and the engines in :mod:`repro.engines` answer *closed*
runs: every query known up front, one ``WalkResults`` back.  The service
sits between the two with one of two dispatchers, **chosen from the
engine object, never by an option**:

* **The open frontier** (:mod:`repro.serve.frontier`) — for an engine
  that offers ``open_frontier`` (the in-process superstep engine:
  ``batch``, and ``jit`` where it falls back to it, under a
  step-invariant spec).  RidgeWalker's argument is that a walk is a
  chain of stateless ``(query, step, v_last)`` tasks, so a lane freed by
  a finished walk takes the next query at once; this is that, in
  software.  The dispatcher *is* the engine's superstep loop: each
  event-loop turn it drains the queue into the tenant scheduler, seats
  ``scheduler.next_batch(free)`` into the frontier's free slots
  (``max_batch`` slots — the same bound on walkers per superstep, held
  continuously), runs one superstep, resolves every walk that ended and
  yields.  No coalescing wait (``max_wait_ms`` has no job here: a
  request is seated the turn it arrives if a slot is free), no thread,
  no hand-off, and a short walk never waits for the longest walk of a
  batch.  The loop steps only while walkers are live — an idle service
  blocks on its queue — and yields every superstep, so admission and
  callers' callbacks run between steps.
* **Closed micro-batches** (this module) — for every engine that only
  has ``run``: ``parallel``, ``dist``, ``reference``, a MetaPath spec on
  any engine, test doubles, proxies.  The service coalesces requests
  into micro-batches (flushed on ``max_batch`` or ``max_wait_ms``,
  whichever comes first) and executes each as one closed run on an
  executor thread, while the event loop coalesces the *next* batch; one
  batch runs at a time.

What that is worth on ``benchmarks/suite``'s ``serve_poisson`` (PPR on
RMAT-16, ``max_batch=64``, 4000 req/s): p50 latency 4.96 -> 1.07 ms and
saturated throughput 180k -> 250k hops/s against closed micro-batches on
the same engine; the README's serving section has the table.

On top of that, the service is (optionally) **multi-tenant**: each
:class:`~repro.serve.qos.TenantSpec` gets its own admission gate and a
weighted-priority share of every admission group
(:class:`~repro.serve.qos.TenantScheduler`), so a flooding tenant sheds
its own traffic instead of starving other tenants' latency SLOs.  And it
(optionally) serves repeated query-id-independent requests from an
epoch-safe **hot-walk cache** (:class:`~repro.serve.cache.HotWalkCache`):
pools of engine-generated walks under reserved query ids, keyed by
``(epoch, start_vertex)`` and invalidated at epoch boundaries.

The service is a scheduling layer, never a semantics layer.  Every
request's randomness is keyed by ``SeedSequence((seed, query_id))`` —
the engines' own per-query substream derivation — and a walker draws
only from the stream state that travels with it, so a request's paths
are bit-identical whether it was served alone, beside 63 strangers of
any age, inside a closed micro-batch, from a cache pool, or replayed
offline through ``run_walks_batch`` with the same seed.  Who shares a
superstep with whom, flush timing, tenant interleaving, and engine
choice (among the bit-compatible array engines) cannot change a single
vertex; ``tests/serve/`` holds the service to that.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from repro.engines import PreparedEngine, prepare_engine
from repro.errors import GraphError, ServeError, ServeOverloadError
from repro.graph.csr import CSRGraph
from repro.obs.metrics import (
    MetricsRegistry,
    cache_into,
    engine_stats_into,
    serve_stats_into,
)
from repro.obs.trace import active as _active_tracer
from repro.sampling.base import normalize_seed
from repro.serve.admission import AdmissionGate
from repro.serve.cache import POOL_ID_BASE, HotWalkCache, ServedWalk
from repro.serve.frontier import frontier_loop
from repro.serve.items import _EpochSwap, _PendingRequest, _PoolFill
from repro.serve.qos import DEFAULT_TENANT, TenantScheduler, TenantSpec
from repro.serve.stats import ServeStats
from repro.walks.base import Query, WalkResults, WalkSpec
from repro.walks.engine import STAT_FIELDS
from repro.walks.reference import EngineStats


@dataclass(frozen=True)
class ServeConfig:
    """Dispatch and admission knobs.

    ``max_batch``
        Walkers that may share one engine step: the open frontier's slot
        count, or the size at which a closed micro-batch flushes.
    ``max_wait_ms``
        Governs only engines served through closed runs: flush a
        non-empty micro-batch this long after its first request even if
        it is not full — the latency ceiling batching may add.  The open
        frontier seats a request the turn it arrives and never reads it.
    ``queue_depth``
        Admission high-water: requests outstanding (queued, seated or
        executing) beyond which new arrivals are shed with
        ``ServeOverloadError``.  Size it with
        :func:`repro.serve.admission.recommended_queue_depth`.  With
        tenants declared, this is the *per-tenant default* for specs
        without their own ``queue_depth``; the global occupancy bound
        becomes the sum of tenant depths.
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


def _merge_engine_stats(into: EngineStats, part: EngineStats) -> None:
    """Fold one micro-batch's engine counters into the service total."""
    for name in ("total_hops", *STAT_FIELDS):
        setattr(into, name, getattr(into, name) + getattr(part, name))
    into.per_query_hops.extend(part.per_query_hops)


def _check_client_id(query_id: int) -> None:
    if query_id >= POOL_ID_BASE:
        raise ServeError(
            f"query ids >= {POOL_ID_BASE} are reserved for hot-walk "
            f"cache pools, got {query_id}"
        )


class WalkService:
    """Open-queue walk server over a prepared engine.

    Lifecycle: ``await start()`` (or ``async with``), then any number of
    ``await submit(...)`` / ``try_submit(...)`` calls from the event
    loop, then ``await stop()`` — which by default drains everything
    already admitted before tearing down the dispatcher (and, on the
    closed path, its executor thread) and the prepared engine.

    ``engine`` is a registry name (``"batch"``, ``"jit"``,
    ``"parallel"``, ``"dist"``, ``"reference"`` — any key of
    :data:`repro.engines.SOFTWARE_ENGINES`) resolved through
    :func:`repro.engines.prepare_engine`, or an already-constructed
    :class:`~repro.engines.PreparedEngine`; either way the service owns
    it and closes it on :meth:`stop`.  A stopped service restarts only
    if its engine can run after ``close`` (``runs_after_close``): the
    pool engines cannot, so build a new service for them.

    ``tenants`` declares the admission classes of a multi-tenant
    service (see :mod:`repro.serve.qos`); requests then carry a
    ``tenant=`` name and per-tenant ledgers appear in
    :attr:`tenant_stats`.  Without it the service runs one anonymous
    class, exactly as before.  ``cache`` attaches a
    :class:`~repro.serve.cache.HotWalkCache` consulted by
    :meth:`try_submit_cached`.
    """

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        engine: str | PreparedEngine = "batch",
        seed: int = 0,
        config: ServeConfig | None = None,
        tenants: Sequence[TenantSpec] | None = None,
        cache: HotWalkCache | None = None,
        **engine_options,
    ) -> None:
        self._config = config or ServeConfig()
        self._seed = normalize_seed(seed)
        # A dynamic GraphSnapshot may stand in for the graph; the service
        # adopts its epoch label and serves its CSR, and the engine reads
        # the snapshot's sampler state, which later epochs then maintain.
        self._initial_epoch = getattr(graph, "epoch", 0)
        snapshot, graph = graph, getattr(graph, "graph", graph)
        if isinstance(engine, PreparedEngine):
            if engine_options:
                raise ServeError(
                    "engine options only apply when the service builds the "
                    "engine; pass them to prepare_engine instead"
                )
            self._runner = engine
        else:
            # Serving defaults to the runtime-adaptive hybrid sampler: the
            # cost model picks each row's strategy once at prepare time, so
            # the hot path never meets a pathological row.  Replay
            # (:func:`replay_paths`) defaults to the same mode, keeping the
            # offline oracle bit-identical; pass ``sampler="default"`` to
            # pin the spec's single-strategy kernel instead.
            engine_options.setdefault("sampler", "auto")
            self._runner = prepare_engine(engine, snapshot, spec, **engine_options)
        #: Vertex count of the graph version the *newest queued* swap
        #: targets — requests admitted now execute after every queued
        #: swap, so try_submit validates against this, not against the
        #: currently executing version (tracked separately for rollback
        #: when a queued swap fails to apply).
        self._num_vertices = graph.num_vertices
        self._applied_num_vertices = graph.num_vertices
        self.stats = ServeStats()
        self.engine_stats = EngineStats()
        specs = tuple(tenants) if tenants else (TenantSpec(DEFAULT_TENANT),)
        self._scheduler = TenantScheduler(specs, self._config.queue_depth)
        #: Per-tenant ledgers; populated only for explicitly declared
        #: tenants (an anonymous service keeps one global ledger).
        self.tenant_stats: dict[str, ServeStats] = (
            {spec.name: ServeStats() for spec in specs} if tenants else {}
        )
        self._gate = AdmissionGate(self._scheduler.total_depth())
        self.cache = cache
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._drained: asyncio.Event | None = None
        #: Closed path only: the one engine thread, and the micro-batch
        #: running on it (one at a time; the next coalesces meanwhile).
        self._executor: ThreadPoolExecutor | None = None
        self._running: asyncio.Task | None = None
        self._next_query_id = 0
        self._accepting = False
        self._runner_closed = False
        self._epoch = self._initial_epoch
        #: Swaps queued but not yet applied.  While non-zero, cache
        #: lookups are suspended: a request admitted now executes on an
        #: epoch whose pools do not exist yet, and hotness counts taken
        #: against the dying epoch would only build doomed pools.
        self._swaps_queued = 0

    @property
    def config(self) -> ServeConfig:
        return self._config

    @property
    def seed(self) -> int:
        """The service seed; replaying a request offline with this seed
        and its query id reproduces its paths bit-for-bit."""
        return self._seed

    @property
    def engine_name(self) -> str:
        return self._runner.name

    @property
    def occupancy(self) -> int:
        """Requests admitted and not yet resolved."""
        return self._gate.occupancy

    @property
    def epoch(self) -> int:
        """Version id of the graph new requests are served against."""
        return self._epoch

    @property
    def tenant_names(self) -> tuple[str, ...]:
        """Declared admission classes (a single default when anonymous)."""
        return self._scheduler.tenant_names

    def reserve_query_ids(self, minimum: int) -> None:
        """Advance the auto-id counter to at least ``minimum``.

        Callers that mix explicit query-id ranges with auto-assigned ids
        on one service (the multi-tenant trace driver) use this to keep
        the ranges disjoint — duplicate ids would mean duplicate
        randomness and a colliding replay map.
        """
        _check_client_id(minimum)
        self._next_query_id = max(self._next_query_id, minimum)

    def snapshot_metrics(
        self, registry: MetricsRegistry | None = None
    ) -> MetricsRegistry:
        """Export every ledger this service keeps as a metrics registry.

        Builds (or extends) a :class:`~repro.obs.metrics.MetricsRegistry`
        from the global :class:`~repro.serve.stats.ServeStats` ledger,
        the per-tenant ledgers (labelled ``tenant="..."``), the merged
        engine counters, the hot-walk cache counters (when attached),
        and point-in-time gauges (occupancy, per-tenant backlog, serving
        epoch).  The export copies the ledgers exactly, so the
        accounting identity ``offered == completed + dropped + failed``
        holds per tenant on the exported counters whenever it holds on
        the ledgers; render it with
        :func:`repro.obs.exporters.render_prometheus` or
        :func:`repro.obs.exporters.write_jsonl`.  Safe to call at any
        point in the service lifecycle — it only reads.
        """
        registry = registry if registry is not None else MetricsRegistry()
        serve_stats_into(registry, self.stats)
        for name in sorted(self.tenant_stats):
            serve_stats_into(registry, self.tenant_stats[name], tenant=name)
        engine_stats_into(registry, self.engine_stats, engine=self.engine_name)
        if self.cache is not None:
            cache_into(registry, self.cache)
        registry.gauge(
            "repro_serve_occupancy", "Requests admitted and not yet resolved",
        ).set(self.occupancy)
        registry.gauge(
            "repro_serve_epoch", "Graph version new requests are served against",
        ).set(self._epoch)
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
        if self._runner_closed and not self._runner.runs_after_close:
            raise ServeError(
                f"cannot restart: stop() closed the {self.engine_name!r} engine "
                "and it cannot run again (its workers are gone); build a new "
                "WalkService"
            )
        self._queue = asyncio.Queue()
        self._drained = asyncio.Event()
        self._drained.set()
        # The dispatcher follows from the engine object: one that can
        # keep a run open is stepped on this loop, any other gets closed
        # runs on a thread.
        open_frontier = getattr(self._runner, "open_frontier", None)
        if open_frontier is not None:
            frontier = open_frontier(self._seed, self._config.max_batch)
            self._dispatcher = asyncio.create_task(frontier_loop(self, frontier))
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="walk-serve"
            )
            self._dispatcher = asyncio.create_task(self._dispatch_loop())
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
            # still built eagerly in __init__ — a parallel engine holds a
            # worker pool and a shared-memory segment — so release it
            # rather than leak it.  Engine close is idempotent.
            self._runner.close()
            self._runner_closed = True
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
        if self._running is not None:
            await self._running
            self._running = None
        # Drain leftovers.  Requests only remain on a no-drain stop (the
        # drained event guarantees none otherwise); epoch swaps and cache
        # pool fills can remain on any stop — neither counts against the
        # admission gate, so draining does not wait for them.  Either
        # way, fail the request/swap futures so no caller hangs; fills
        # have no futures and are simply discarded.
        abandoned: Counter[str] = Counter()
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if isinstance(item, _PoolFill):
                # The cache marked this vertex in-flight at enqueue time;
                # without the abort a restart sharing this cache object
                # would treat the vertex as forever-filling and never
                # trigger (or serve) another fill for it.
                self.cache.fill_aborted(item.start_vertex)
                continue
            if not item.future.done():
                item.future.set_exception(
                    ServeError(
                        "service stopped before the "
                        + ("graph swap" if isinstance(item, _EpochSwap) else "request")
                        + " executed"
                    )
                )
            if isinstance(item, _EpochSwap):
                # Never applied: admission goes back to the serving graph.
                self._swaps_queued -= 1
                self._num_vertices = self._applied_num_vertices
            else:
                abandoned[item.tenant] += 1
        for tenant, count in abandoned.items():
            self._release(tenant, count)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._runner.close()
        self._runner_closed = True
        self._queue = None
        self._dispatcher = None
        self._executor = None

    async def __aenter__(self) -> "WalkService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def _resolve_tenant(self, tenant: str | None) -> str:
        if tenant is None:
            names = self._scheduler.tenant_names
            if len(names) == 1:
                return names[0]
            raise ServeError(
                f"this service declares tenants {list(names)}; pass tenant="
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
        """Validate and count one request into both gate layers."""
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
        # The global gate's high-water is the sum of tenant depths, so a
        # request its tenant admitted always fits here too.
        self._gate.admit()

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
        id; pass one explicitly to make the request replayable offline
        by ``(service seed, query_id)``.  ``tenant`` selects the
        admission class on a multi-tenant service (mandatory there,
        ignored-by-default on an anonymous one).
        """
        self._require_running()
        tenant = self._resolve_tenant(tenant)
        if query_id is None:
            query_id = self._next_query_id
        else:
            _check_client_id(query_id)
        # Validate before admitting: a request that can only fail must be
        # rejected here, at its own call site, not discovered mid-batch
        # where the engine error would poison co-batched requests.
        query = Query(query_id, start_vertex)
        self._admit(tenant, start_vertex)
        # Only advance the auto-id counter for admitted requests, and keep
        # it ahead of explicit ids so mixed usage cannot collide.
        self._next_query_id = max(self._next_query_id, query_id + 1)
        now = asyncio.get_running_loop().time()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._enqueue(_PendingRequest(query, future, now, tenant=tenant))
        return future

    async def submit(
        self, start_vertex: int, query_id: int | None = None,
        tenant: str | None = None,
    ) -> WalkResults:
        """Admit one request and await its :class:`WalkResults` slice."""
        return await self.try_submit(start_vertex, query_id=query_id, tenant=tenant)

    def try_submit_cached(
        self, start_vertex: int, tenant: str | None = None
    ) -> asyncio.Future:
        """Admit one *query-id-independent* request; may serve from cache.

        The caller asks for "a fresh walk from ``start_vertex``" and
        lets the service pick the query id; the future resolves with a
        :class:`~repro.serve.cache.ServedWalk` carrying the id that
        actually keyed the walk's randomness — a cache-pool reserved id
        on a hit, a service-assigned id on a miss — plus the epoch it
        executed on, so every response replays bit-identically offline.
        Hits resolve immediately, bypass admission (no engine work), and
        count as completions; misses ride the normal admission /
        batching / QoS path and feed the cache's hotness counters.
        """
        self._require_running()
        tenant = self._resolve_tenant(tenant)
        loop = asyncio.get_running_loop()
        # Construct (and thereby validate) up front: a bad vertex must be
        # rejected before it can touch cache counters or gate occupancy.
        # On a hit the query is simply discarded — its id stays unspent.
        query = Query(self._next_query_id, start_vertex)
        self._check_vertex(start_vertex)
        # Lookups only against a settled epoch: with a swap queued, this
        # request will execute on a version whose pools cannot exist yet.
        if self.cache is not None and self._swaps_queued == 0:
            entry = self.cache.take(self._epoch, start_vertex)
            if entry is not None:
                pool_id, path = entry
                now = loop.time()
                self.stats.record_submit(now)
                self.stats.record_completion(0.0, now, cache_hit=True)
                tenant_stats = self.tenant_stats.get(tenant)
                if tenant_stats is not None:
                    tenant_stats.record_submit(now)
                    tenant_stats.record_completion(0.0, now, cache_hit=True)
                tracer = _active_tracer()
                if tracer is not None:
                    tracer.instant("serve.cache_hit", vertex=start_vertex,
                                   epoch=self._epoch, tenant=tenant)
                future: asyncio.Future = loop.create_future()
                future.set_result(
                    ServedWalk(pool_id, path, self._epoch, cache_hit=True)
                )
                return future
            fill_queries = self.cache.note_miss(self._epoch, start_vertex)
            if fill_queries is not None:
                # Gate-exempt: pool generation is the service's own work,
                # queued *now* so it lands on the epoch that is hot.
                tracer = _active_tracer()
                if tracer is not None:
                    tracer.instant("serve.cache_fill_queued",
                                   vertex=start_vertex, epoch=self._epoch,
                                   pool_size=len(fill_queries))
                self._queue.put_nowait(_PoolFill(start_vertex, fill_queries))
        self._admit(tenant, start_vertex)
        self._next_query_id += 1
        now = loop.time()
        future = loop.create_future()
        self._enqueue(
            _PendingRequest(query, future, now, tenant=tenant, cacheable=True)
        )
        return future

    async def submit_cached(
        self, start_vertex: int, tenant: str | None = None
    ) -> ServedWalk:
        """Awaitable twin of :meth:`try_submit_cached`."""
        return await self.try_submit_cached(start_vertex, tenant=tenant)

    def try_update_graph(self, snapshot) -> asyncio.Future:
        """Queue a graph swap *now*; returns the future of its epoch id.

        The epoch boundary is the queue position at the moment of this
        call — the synchronous-enqueue twin of :meth:`update_graph`, for
        callers that must interleave a swap between two ``try_submit``
        calls without yielding to the event loop in between.
        """
        self._require_running()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(_EpochSwap(snapshot, future))
        self._swaps_queued += 1
        # Requests admitted from this point on will execute after the
        # swap, so admission validation must use the new graph's bounds
        # immediately — not when the swap drains the queue.
        graph = getattr(snapshot, "graph", snapshot)
        self._num_vertices = graph.num_vertices
        return future

    async def update_graph(self, snapshot) -> int:
        """Swap the service onto a new graph version; returns its epoch.

        ``snapshot`` is a dynamic
        :class:`~repro.dynamic.graph.GraphSnapshot` (whose prepared
        sampler state makes the swap cheap and whose ``epoch`` labels the
        version) or a plain :class:`CSRGraph` (epoch auto-incremented).
        The swap is an *epoch boundary*, enforced by queue order: every
        request admitted before this call executes on the old version —
        including ones already in flight — and every request admitted
        after it executes on the new one.  Micro-batches never span the
        boundary.  Per-epoch determinism survives: a request's paths
        replay bit-identically offline against its epoch's graph.
        Hot-walk cache pools from older epochs are invalidated the
        moment the swap applies (and are unreachable even before that —
        pools are keyed by epoch).

        The engine swap itself preserves long-lived resources (the
        parallel engine's worker pool survives; see
        :meth:`repro.engines.PreparedEngine.swap_snapshot`).
        """
        return await self.try_update_graph(snapshot)

    def _settle_swap(self, swap: _EpochSwap, error: Exception | None) -> None:
        """Book one queued swap as applied (``error`` None) or not.

        On failure the service keeps serving the old graph, so admission
        validation rolls back to it (``try_update_graph`` advanced the
        bound optimistically at enqueue time).
        """
        self._swaps_queued -= 1
        if error is None:
            graph = getattr(swap.snapshot, "graph", swap.snapshot)
            self._applied_num_vertices = graph.num_vertices
            self._epoch = getattr(swap.snapshot, "epoch", self._epoch + 1)
            if self.cache is not None:
                self.cache.drop_stale(self._epoch)
            if not swap.future.done():
                swap.future.set_result(self._epoch)
            return
        self._num_vertices = self._applied_num_vertices
        if not swap.future.done():
            swap.future.set_exception(error)

    async def _apply_swap(self, swap: _EpochSwap) -> None:
        """Closed path: execute one queued graph swap between micro-batches.

        Waits out the running micro-batch first, so nothing executes
        against the engine mid-swap and the swap is ordered after every
        batch flushed before it.
        """
        tracer = _active_tracer()
        if tracer is not None:
            _t_swap = tracer.begin()
        error: Exception | None = None
        try:
            if self._running is not None:
                # wait(), not await: a cancelled dispatcher must not
                # cancel the batch with it.
                await asyncio.wait((self._running,))
            await asyncio.get_running_loop().run_in_executor(
                self._executor, partial(self._runner.swap_snapshot, swap.snapshot)
            )
        except asyncio.CancelledError:
            error = ServeError("service stopped before the graph swap executed")
            raise
        except Exception as exc:
            error = exc
        finally:
            self._settle_swap(swap, error)
            if tracer is not None:
                # Covers the wait for the running batch (the barrier) plus
                # the engine swap itself; ``epoch`` is the version now serving.
                tracer.end(_t_swap, "serve.epoch_swap", epoch=self._epoch,
                           applied=error is None)

    async def _dispatch_loop(self) -> None:
        """Closed path: coalesce requests into micro-batches, hand them off.

        Flush policy: the batch opens when its first request arrives and
        closes at ``max_batch`` requests or ``max_wait_ms`` later,
        whichever comes first.  Ingested requests are buffered in the
        tenant scheduler and each batch is *composed* by weighted
        round-robin over the backlogged tenants (FIFO order with a
        single tenant), with at most one cache pool fill appended.  One
        batch executes at a time, so the loop collects batch N+1 while
        batch N runs — coalescing rides in the engine's shadow instead
        of adding latency to it.  An :class:`_EpochSwap` in the stream
        closes the open batch early and *barriers*: ingest stops at the
        swap until every request admitted before it has been dispatched
        (batches never span an epoch boundary), then the swap applies.
        """
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        max_wait = self._config.max_wait_ms / 1e3
        scheduler = self._scheduler
        pending_swap: _EpochSwap | None = None
        try:
            while True:
                if not scheduler.has_work() and pending_swap is None:
                    item = await self._queue.get()
                    if isinstance(item, _EpochSwap):
                        pending_swap = item
                    else:
                        scheduler.push(item)
                if pending_swap is None and (
                    0 < scheduler.pending_clients < self._config.max_batch
                ):
                    # Coalescing window: opened by the first buffered
                    # request, closed by max_batch or the deadline.
                    deadline = loop.time() + max_wait
                    while scheduler.pending_clients < self._config.max_batch:
                        # Fast path: drain everything already queued
                        # without touching the event loop.  A timed wait
                        # costs tens of microseconds (timer + wakeup per
                        # call); under a burst that overhead would eat
                        # the coalescing window and flush chronically
                        # under-filled batches.
                        try:
                            item = self._queue.get_nowait()
                        except asyncio.QueueEmpty:
                            remaining = deadline - loop.time()
                            if remaining <= 0:
                                break
                            try:
                                item = await asyncio.wait_for(
                                    self._queue.get(), remaining
                                )
                            except asyncio.TimeoutError:
                                break
                        if isinstance(item, _EpochSwap):
                            pending_swap = item
                            break
                        scheduler.push(item)
                elif pending_swap is None:
                    # Nothing to coalesce for (full buffer or fills
                    # only): just pick up whatever is already queued.
                    while not self._queue.empty():
                        item = self._queue.get_nowait()
                        if isinstance(item, _EpochSwap):
                            pending_swap = item
                            break
                        scheduler.push(item)
                if scheduler.has_work():
                    # Wait *before* composing: a cancellation while the
                    # previous batch runs leaves every request safely
                    # buffered for the teardown requeue below.
                    if self._running is not None:
                        await asyncio.wait((self._running,))
                    batch = scheduler.next_batch(self._config.max_batch)
                    tracer = _active_tracer()
                    if tracer is not None:
                        tracer.instant("serve.coalesce", size=len(batch),
                                       backlog=scheduler.pending_clients)
                    self._running = asyncio.create_task(self._execute(batch))
                if pending_swap is not None and not scheduler.has_work():
                    # Barrier reached: everything admitted before the
                    # swap has been handed off; _apply_swap orders it
                    # after their execution too.
                    await self._apply_swap(pending_swap)
                    pending_swap = None
        except asyncio.CancelledError:
            # Cancelled (a no-drain stop): hand buffered requests and any
            # pending swap back to the queue so stop() can fail their
            # futures instead of leaving callers hanging.
            for item in scheduler.drain_all():
                self._queue.put_nowait(item)
            if pending_swap is not None:
                self._queue.put_nowait(pending_swap)
            raise

    def _release(self, tenant: str, count: int = 1) -> None:
        """Return ``count`` closed requests' places to both gate layers."""
        assert self._drained is not None
        self._scheduler.release(tenant, count)
        self._gate.release(count)
        if self._gate.occupancy == 0:
            self._drained.set()

    def _complete(self, request: _PendingRequest, path: np.ndarray, epoch: int,
                  now: float, busy_seconds: float) -> None:
        """Resolve one served request with ``path`` (which it now owns).

        ``busy_seconds`` is the request's share of engine time, booked —
        with its hops — to its tenant's ledger.
        """
        if not request.future.done():
            if request.cacheable:
                result = ServedWalk(request.query.query_id, path, epoch, cache_hit=False)
            else:
                result = WalkResults()
                result.add_path(path)
            request.future.set_result(result)
        latency = now - request.submitted_at
        self.stats.record_completion(latency, now)
        tenant_stats = self.tenant_stats.get(request.tenant)
        if tenant_stats is not None:
            tenant_stats.record_completion(latency, now)
            tenant_stats.record_service(path.size - 1, busy_seconds)

    def _fail(self, request: _PendingRequest, error: Exception, now: float) -> None:
        """Resolve one admitted request with the engine's exception."""
        if not request.future.done():
            request.future.set_exception(error)
        self.stats.record_failure(now)
        tenant_stats = self.tenant_stats.get(request.tenant)
        if tenant_stats is not None:
            tenant_stats.record_failure(now)

    def _record_tenant_admission(self, clients: Sequence[_PendingRequest]) -> None:
        """Each tenant's batch-shape ledger records its share of one
        admission group (the service-wide one records it whole)."""
        if self.tenant_stats:
            for tenant, count in Counter(r.tenant for r in clients).items():
                self.tenant_stats[tenant].record_admission(count)

    async def _execute(self, batch: list) -> None:
        """Closed path: run one micro-batch on the engine, resolve its futures.

        ``batch`` holds client :class:`_PendingRequest`\\ s (clients
        first) and at most one :class:`_PoolFill`.  Every admitted
        request leaves through exactly one ledger bucket — completed on
        success, failed when the engine raises — so the accounting
        identity ``offered == completed + dropped + failed`` survives
        engine failures too.
        """
        # Stable while this batch runs: a swap waits for it to finish
        # before touching the engine.
        epoch = self._epoch
        loop = asyncio.get_running_loop()
        clients = [item for item in batch if isinstance(item, _PendingRequest)]
        fills = [item for item in batch if isinstance(item, _PoolFill)]
        queries = [request.query for request in clients]
        for fill in fills:
            queries.extend(fill.queries)
        batch_stats = EngineStats()
        started = loop.time()
        failure: Exception | None = None
        tracer = _active_tracer()
        if tracer is not None:
            _t_exec = tracer.begin()
        try:
            results = await loop.run_in_executor(
                self._executor,
                partial(self._runner.run, queries, seed=self._seed, stats=batch_stats),
            )
        except Exception as exc:
            failure = exc
        now = loop.time()
        if tracer is not None:
            tracer.end(_t_exec, "serve.execute", batch=len(clients),
                       fills=len(fills), queries=len(queries), epoch=epoch,
                       hops=batch_stats.total_hops,
                       tenants=sorted({r.tenant for r in clients}),
                       failed=failure is not None)
        _merge_engine_stats(self.engine_stats, batch_stats)
        if clients:
            # Pure-fill dispatches stay out of the batch-shape ledger:
            # the histogram and mean describe client-serving groups.
            self.stats.record_batch(len(clients), batch_stats.total_hops, now - started)
            self._record_tenant_admission(clients)
            for request in clients:
                self._release(request.tenant)
        if failure is not None:
            for request in clients:
                self._fail(request, failure, now)
            if self.cache is not None:
                for fill in fills:
                    self.cache.fill_aborted(fill.start_vertex)
            return
        if tracer is not None:
            _t_resp = tracer.begin()
        # Every query of the run takes an equal share of its engine time.
        share = (now - started) / len(queries)
        for position, request in enumerate(clients):
            self._complete(request, results.owned_path(position), epoch, now, share)
        if tracer is not None and clients:
            tracer.end(_t_resp, "serve.respond", batch=len(clients))
        if fills and self.cache is not None:
            position = len(clients)
            for fill in fills:
                entries = [
                    (query.query_id, results.owned_path(position + offset))
                    for offset, query in enumerate(fill.queries)
                ]
                position += len(entries)
                self.cache.install(epoch, fill.start_vertex, entries)
                if tracer is not None:
                    tracer.instant("serve.cache_fill", vertex=fill.start_vertex,
                                   entries=len(entries), epoch=epoch)


def replay_paths(
    graph: CSRGraph,
    spec: WalkSpec,
    requests: dict[int, int],
    seed: int,
    sampler: str = "auto",
) -> dict[int, np.ndarray]:
    """Offline oracle for served requests: ``{query_id: path}``.

    Runs ``{query_id: start_vertex}`` through ``run_walks_batch`` with
    the service seed, in one closed batch.  A correct service returns
    exactly these paths regardless of how its micro-batching happened to
    slice the request stream — the determinism contract the serve tests
    and the CI smoke assert.  This covers cache-served walks too: a
    :class:`~repro.serve.cache.ServedWalk`'s ``query_id`` (a reserved
    pool id on hits) replayed against its ``epoch``'s graph reproduces
    its path bit-for-bit.  ``sampler`` defaults to ``"auto"``, the
    service's own default; replaying a service pinned to
    ``sampler="default"`` must pass the same.
    """
    from repro.walks.batch import run_walks_batch

    queries = [Query(query_id, start) for query_id, start in sorted(requests.items())]
    results = run_walks_batch(graph, spec, queries, seed=seed, sampler=sampler)
    return {
        query.query_id: results.path_of(position)
        for position, query in enumerate(queries)
    }
