"""Sharded multicore walk engine: one batch engine per core.

RidgeWalker scales by replicating perfectly pipelined walk pipelines
against HBM channels; this is the software analogue — the vectorized
batch engine (~20x the reference loop on one core) replicated across a
persistent ``multiprocessing`` worker pool, all workers sampling against
one shared-memory CSR graph.  The parent builds and prepares everything
exactly once (graph arrays, alias tables, edge keys), broadcasts it
through :mod:`repro.parallel.shared_graph`, shards each query batch with
the degree-aware cost planner, and merges worker results back into query
order.

Determinism is absolute, not best-effort: every query's randomness is
keyed by ``SeedSequence((seed, query_id))`` independently of its shard,
and the merge reassembles paths by original batch position — so
``WalkResults`` and ``EngineStats`` are bit-identical for any
``workers`` count and any query order.  Tests prove it.

Use :class:`ParallelWalkEngine` directly to amortize pool + shared-graph
setup across many batches (the serving pattern), or the one-shot
:func:`run_walks_parallel` wrapper (the ``--engine parallel`` path).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import Sequence

import numpy as np

from repro.errors import WalkConfigError
from repro.graph.csr import CSRGraph
from repro.obs.trace import active as _active_tracer
from repro.parallel import worker as _worker
from repro.parallel.planner import QueryCostModel, plan_shards
from repro.parallel.shared_graph import KERNEL_PREFIX, SharedArrayStore, graph_arrays
from repro.sampling.hybrid import make_walk_kernel, validate_sampler_mode
from repro.walks.base import Query, WalkResults, WalkSpec, path_offsets, unpack_queries
from repro.walks.batch import STAT_FIELDS, check_batch_spec, check_start_vertices, record_run
from repro.walks.jit import NUMBA_AVAILABLE, warn_numba_fallback
from repro.walks.reference import EngineStats

#: Per-worker shard cores the pool can run (``backend=`` option).
WORKER_BACKENDS = ("batch", "jit")


def validate_worker_backend(backend: str) -> str:
    """Reject unknown worker backends, naming the valid choices."""
    if backend not in WORKER_BACKENDS:
        raise WalkConfigError(
            f"unknown worker backend {backend!r}; expected one of "
            f"{list(WORKER_BACKENDS)}"
        )
    return backend


def default_workers() -> int:
    """Worker count when none is given: every core actually available.

    CPU affinity masks and container quotas make this differ from
    ``os.cpu_count()`` — a 2-CPU cgroup on a 16-core host should get 2
    workers, not 16 oversubscribed ones.  The parallel benchmark gates
    its speedup requirement on the same number.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without affinity APIs
        return max(1, os.cpu_count() or 1)


def _pick_context() -> multiprocessing.context.BaseContext:
    """Fork on Linux (cheap start, inherited modules); the platform
    default elsewhere — macOS offers fork but deliberately defaults to
    spawn because forking a process with framework threads is unsafe.
    The shared-memory design works under both start methods."""
    if sys.platform == "linux":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ParallelWalkEngine:
    """A persistent pool of batch-engine workers over one shared graph.

    Construction pays the one-time costs: kernel preparation (alias
    tables, edge keys), the shared-memory copy of graph + kernel state,
    and pool start-up.  Every :meth:`run` after that only ships shard
    descriptors (ids, starts, seed) out and compact path buffers back.
    Close the engine (or use it as a context manager) to tear down the
    pool and unlink the shared segment.
    """

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        workers: int | None = None,
        shards_per_worker: int = 4,
        sampler: str = "default",
        backend: str = "batch",
    ) -> None:
        check_batch_spec(spec)
        validate_sampler_mode(sampler)
        validate_worker_backend(backend)
        if backend == "jit" and not NUMBA_AVAILABLE:
            # Same degradation contract as --engine jit: results are
            # bit-identical either way, so warn once and run batch cores.
            warn_numba_fallback()
            backend = "batch"
        if workers is not None and workers < 1:
            raise WalkConfigError(f"workers must be >= 1, got {workers}")
        if shards_per_worker < 1:
            raise WalkConfigError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}"
            )
        self._graph = graph
        self._spec = spec
        self._sampler_mode = sampler
        self._backend = backend
        self._workers = workers or default_workers()
        # Oversharding lets a fast worker steal queued shards from a slow
        # one.
        self._shards_per_worker = shards_per_worker
        self._cost_model = QueryCostModel(graph, spec)

        kernel = make_walk_kernel(spec.make_sampler(), sampler)
        kernel.prepare(graph)
        self._store = self._create_store(graph, kernel.state_arrays())
        self._pool = None
        try:
            context = _pick_context()
            # Forked workers share the parent's resource tracker and
            # must leave the segment registration alone; spawned ones
            # have their own tracker and must untrack the attach.
            self._untrack_attach = context.get_start_method() != "fork"
            # One party per worker: pins graph-swap broadcasts so every
            # worker adopts the new segment exactly once (see
            # worker.adopt_store).
            self._swap_barrier = context.Barrier(self._workers)
            self._pool = context.Pool(
                processes=self._workers,
                initializer=_worker.init_worker,
                initargs=(self._store.handle, spec, self._untrack_attach,
                          self._swap_barrier, sampler, backend),
            )
        except Exception:
            self._store.close()
            raise

    @staticmethod
    def _create_store(graph: CSRGraph, kernel_arrays: dict) -> SharedArrayStore:
        shared = dict(graph_arrays(graph))
        for name, array in kernel_arrays.items():
            shared[KERNEL_PREFIX + name] = array
        return SharedArrayStore.create(shared, graph_name=graph.name)

    @property
    def workers(self) -> int:
        return self._workers

    def run(
        self,
        queries: Sequence[Query],
        seed: int = 0,
        stats: EngineStats | None = None,
    ) -> WalkResults:
        """Execute ``queries``, bit-identical to ``run_walks_batch``."""
        if self._pool is None:
            raise WalkConfigError("parallel engine is closed")
        num_queries = len(queries)
        if num_queries == 0:
            return WalkResults()
        query_ids, starts = unpack_queries(queries)
        # Fail fast in the parent, before work is sharded out.
        check_start_vertices(self._graph, starts)

        tracer = _active_tracer()
        if tracer is not None:
            _t_plan = tracer.begin()
        costs = self._cost_model.costs(starts)
        shards = plan_shards(costs, self._workers * self._shards_per_worker)
        tasks = [
            (positions, query_ids[positions], starts[positions], seed)
            for positions in shards
            if positions.size
        ]
        if tracer is not None:
            tracer.end(_t_plan, "parallel.plan", queries=num_queries,
                       shards=len(tasks))
            _t_dispatch = tracer.begin()

        # Shards arrive in completion order; everything below is
        # position-addressed, so arrival order cannot change the result.
        arrived = []
        hops = np.zeros(num_queries, dtype=np.int64)
        counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
        for positions, shard_flat, shard_hops, shard_counts in self._pool.imap_unordered(
            _worker.run_shard, tasks
        ):
            if tracer is not None:
                tracer.instant("parallel.shard_merged", size=int(positions.size),
                               hops=int(shard_hops.sum()))
            arrived.append((positions, shard_flat, shard_hops + 1))
            hops[positions] = shard_hops
            counts += shard_counts
        if tracer is not None:
            tracer.end(_t_dispatch, "parallel.dispatch", queries=num_queries,
                       shards=len(tasks), workers=self._workers)

        # All hop counts in, the layout is known: each shard's compact
        # buffer moves to its queries' final slots with one scatter.
        offsets = path_offsets(hops + 1)
        flat = np.empty(int(offsets[-1]), dtype=np.int64)
        for positions, shard_flat, lengths in arrived:
            shift = offsets[positions] - path_offsets(lengths)[:-1]
            flat[np.repeat(shift, lengths) + np.arange(shard_flat.size)] = shard_flat
        record_run(stats, counts, hops)
        return WalkResults.from_flat(flat, offsets)

    def swap_graph(
        self, graph: CSRGraph, kernel_arrays: dict | None = None
    ) -> None:
        """Point the live worker pool at a new graph version.

        The pool and its processes survive — only the shared-memory
        segment is replaced: the parent serializes the new graph (plus
        prepared kernel state) into a fresh segment, broadcasts one
        ``adopt_store`` task per worker (a barrier guarantees exactly-once
        delivery), then unlinks the old segment.  ``kernel_arrays`` —
        e.g. a dynamic snapshot's incrementally maintained state — skips
        the parent-side ``kernel.prepare`` pass entirely; pass ``None``
        to prepare from scratch.

        Must not be called concurrently with :meth:`run` (the serving
        layer serializes swaps onto epoch boundaries for exactly this
        reason).
        """
        if self._pool is None:
            raise WalkConfigError("parallel engine is closed")
        if graph.num_vertices != self._graph.num_vertices:
            # Shards planned against the old degree array would index out
            # of range; a changed vertex universe needs a new engine.
            raise WalkConfigError(
                f"cannot swap to a graph with {graph.num_vertices} vertices; "
                f"the engine was built for {self._graph.num_vertices}"
            )
        tracer = _active_tracer()
        if tracer is not None:
            _t_swap = tracer.begin()
        if kernel_arrays is None:
            kernel = make_walk_kernel(self._spec.make_sampler(), self._sampler_mode)
            kernel.prepare(graph)
            kernel_arrays = kernel.state_arrays()
        new_store = self._create_store(graph, kernel_arrays)
        try:
            tasks = [(new_store.handle, self._untrack_attach)] * self._workers
            pids = self._pool.map(_worker.adopt_store, tasks, chunksize=1)
            if len(set(pids)) != self._workers:  # pragma: no cover - barrier guards this
                raise WalkConfigError(
                    f"graph swap reached {len(set(pids))} of {self._workers} "
                    "workers"
                )
        except Exception:
            new_store.close()
            raise
        old_store = self._store
        self._store = new_store
        old_store.close()
        self._graph = graph
        self._cost_model = QueryCostModel(graph, self._spec)
        if tracer is not None:
            tracer.end(_t_swap, "parallel.swap", workers=self._workers)

    def close(self) -> None:
        """Stop the workers and release the shared segment."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        self._store.close()

    def __enter__(self) -> "ParallelWalkEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass


def run_walks_parallel(
    graph: CSRGraph,
    spec: WalkSpec,
    queries: Sequence[Query],
    seed: int = 0,
    stats: EngineStats | None = None,
    workers: int | None = None,
    sampler: str = "default",
    backend: str = "batch",
) -> WalkResults:
    """One-shot parallel execution (``--engine parallel``).

    Spins the pool up and down around a single batch; long-lived callers
    should hold a :class:`ParallelWalkEngine` instead so pool and
    shared-graph setup amortize across requests.  ``backend="jit"`` runs
    the fused jit kernels inside each worker (bit-identical results).
    """
    with ParallelWalkEngine(
        graph, spec, workers=workers, sampler=sampler, backend=backend
    ) as engine:
        return engine.run(queries, seed=seed, stats=stats)
