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

:class:`ParallelWalkEngine` is the registry's ``--engine parallel``;
hold one to amortize pool + shared-graph setup across many batches (the
serving pattern).
"""

from __future__ import annotations

import multiprocessing
import os
import sys

import numpy as np

from repro.errors import WalkConfigError
from repro.graph.csr import CSRGraph
from repro.obs.trace import active as _active_tracer
from repro.parallel import worker as _worker
from repro.parallel.planner import QueryCostModel, plan_shards
from repro.parallel.shared_graph import KERNEL_PREFIX, SharedArrayStore, graph_arrays
from repro.sampling.vectorized import VectorizedKernel
from repro.walks.base import WalkSpec, path_offsets
from repro.walks.batch import BatchEngine
from repro.walks.engine import STAT_FIELDS, PreparedEngine, prepared_kernel
from repro.walks.jit import NUMBA_AVAILABLE, JitEngine, warn_numba_fallback

#: Per-worker shard cores the pool can run (``backend=`` option): the
#: array engine each worker holds over the shared graph.
WORKER_BACKENDS = {"batch": BatchEngine, "jit": JitEngine}

#: Shards planned per worker.  Oversharding lets a fast worker steal
#: queued shards from a slow one.
SHARDS_PER_WORKER = 4


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


class ParallelWalkEngine(PreparedEngine):
    """A persistent pool of batch-engine workers over one shared graph.

    Construction pays the one-time costs: kernel preparation (alias
    tables, edge keys), the shared-memory copy of graph + kernel state,
    and pool start-up.  Every :meth:`run` after that only ships shard
    descriptors (ids, starts, seed) out and compact path buffers back.
    Close the engine (or use it as a context manager) to tear down the
    pool and unlink the shared segment.
    """

    name = "parallel"
    #: ``backend`` (``"batch"`` | ``"jit"``) picks the per-shard core.
    options = frozenset({"workers", "sampler", "backend"})
    runs_after_close = False

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        workers: int | None = None,
        sampler: str = "default",
        backend: str = "batch",
    ) -> None:
        self._configure(graph, spec, sampler)
        validate_worker_backend(backend)
        if backend == "jit" and not NUMBA_AVAILABLE:
            # Same degradation contract as --engine jit: results are
            # bit-identical either way, so warn once and run batch cores.
            warn_numba_fallback()
            backend = "batch"
        if workers is not None and workers < 1:
            raise WalkConfigError(f"workers must be >= 1, got {workers}")
        self._workers = workers or default_workers()
        self._cost_model = QueryCostModel(graph, spec)

        _, kernel = prepared_kernel(spec, sampler, graph)
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
                          self._swap_barrier, sampler, WORKER_BACKENDS[backend]),
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

    def _run_arrays(self, query_ids, starts, seed):
        if self._pool is None:
            raise WalkConfigError("parallel engine is closed")
        num_queries = starts.size

        tracer = _active_tracer()
        if tracer is not None:
            _t_plan = tracer.begin()
        costs = self._cost_model.costs(starts)
        shards = plan_shards(costs, self._workers * SHARDS_PER_WORKER)
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
        return flat, offsets, counts

    def _adopt(self, graph: CSRGraph, kernel: VectorizedKernel) -> None:
        """Point the live worker pool at a new graph version.

        The pool and its processes survive — only the shared-memory
        segment is replaced: the parent serializes the new graph (plus
        ``kernel``'s prepared state) into a fresh segment, broadcasts one
        ``adopt_store`` task per worker (a barrier guarantees exactly-once
        delivery), then unlinks the old segment.
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
        new_store = self._create_store(graph, kernel.state_arrays())
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

    def __del__(self) -> None:  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass
