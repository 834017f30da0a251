"""Sharded multicore walk engine: one batch engine per core.

RidgeWalker scales by replicating perfectly pipelined walk pipelines
against HBM channels; this is the software analogue — the vectorized
batch engine (~20x the reference loop on one core) replicated across a
persistent :class:`~repro.parallel.runtime.WorkerGroup`, all workers
sampling against one shared-memory CSR graph.  The parent builds and
prepares everything exactly once (graph arrays, alias tables, edge
keys), broadcasts it through :mod:`repro.parallel.shared_graph`, shards
each query batch with the degree-aware cost planner, hands the shards
out feedback-driven — each reply releases the next planned shard to the
worker that just finished — and merges worker results back into query
order.

Determinism is absolute, not best-effort: every query's randomness is
keyed by ``SeedSequence((seed, query_id))`` independently of its shard,
and the merge reassembles paths by original batch position — so
``WalkResults`` and ``EngineStats`` are bit-identical for any
``workers`` count and any query order.  Tests prove it.  A worker
fault raises :class:`~repro.errors.WorkerError` in seconds and closes
the engine; nothing leaks (:mod:`repro.parallel.runtime`).

:class:`ParallelWalkEngine` is the registry's ``--engine parallel``;
hold one to amortize worker + shared-graph setup across many batches
(the serving pattern).
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import WalkConfigError
from repro.graph.csr import CSRGraph
from repro.obs.trace import active as _active_tracer
from repro.parallel.planner import QueryCostModel, plan_shards
from repro.parallel.runtime import WorkerGroup, WorkerGroupEngine
from repro.parallel.shared_graph import KERNEL_PREFIX, SharedArrayStore, graph_arrays
from repro.parallel.worker import ShardRunner
from repro.sampling.vectorized import VectorizedKernel
from repro.walks.base import WalkSpec, path_offsets
from repro.walks.batch import BatchEngine
from repro.walks.engine import STAT_FIELDS, prepared_kernel
from repro.walks.jit import NUMBA_AVAILABLE, JitEngine, warn_numba_fallback

#: Per-worker shard cores the workers can run (``backend=`` option): the
#: array engine each worker holds over the shared graph.
WORKER_BACKENDS = {"batch": BatchEngine, "jit": JitEngine}

#: Shards planned per worker.  Oversharding lets a fast worker take
#: the next planned shard while a slow one is still busy.
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


class ParallelWalkEngine(WorkerGroupEngine):
    """A persistent group of batch-engine workers over one shared graph.

    Construction pays the one-time costs: kernel preparation (alias
    tables, edge keys), the shared-memory copy of graph + kernel state,
    and worker start-up.  Every :meth:`run` after that only ships shard
    descriptors (ids, starts, seed) out and compact path buffers back.
    Close the engine (or use it as a context manager) to stop the
    workers and unlink the shared segment.
    """

    name = "parallel"
    #: ``backend`` (``"batch"`` | ``"jit"``) picks the per-shard core.
    options = frozenset({"workers", "sampler", "backend"})

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

        graph, kernel = prepared_kernel(spec, sampler, graph)
        self._group = WorkerGroup(
            self.name,
            self._segments(graph, kernel),
            ShardRunner,
            [(spec, sampler, WORKER_BACKENDS[backend])] * self._workers,
        )

    def _segments(self, graph: CSRGraph, kernel: VectorizedKernel) -> list[SharedArrayStore]:
        # Every worker attaches the one segment holding graph + kernel state.
        shared = dict(graph_arrays(graph))
        for name, array in kernel.state_arrays().items():
            shared[KERNEL_PREFIX + name] = array
        store = SharedArrayStore.create(shared, graph_name=graph.name)
        self._cost_model = QueryCostModel(graph, self._spec)
        return [store] * self._workers

    @property
    def workers(self) -> int:
        return self._workers

    def _run_arrays(self, query_ids, starts, seed):
        num_queries = starts.size

        tracer = _active_tracer()
        if tracer is not None:
            _t_plan = tracer.begin()
        costs = self._cost_model.costs(starts)
        shards = [
            positions
            for positions in plan_shards(costs, self._workers * SHARDS_PER_WORKER)
            if positions.size
        ]
        if tracer is not None:
            tracer.end(_t_plan, "parallel.plan", queries=num_queries,
                       shards=len(shards))
            _t_dispatch = tracer.begin()

        # Shards arrive in completion order; everything below is
        # position-addressed, so arrival order cannot change the result.
        arrived = []
        hops = np.zeros(num_queries, dtype=np.int64)
        counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
        # Feedback-driven: one shard in flight per worker, and each reply
        # releases the next planned shard to the worker that just
        # finished.  The parent remembers which positions each worker
        # holds, so only ids and starts cross the pipe.
        group = self._group
        planned = iter(shards)
        flying: dict[int, np.ndarray] = {}

        def release_next(rank: int) -> None:
            positions = next(planned, None)
            if positions is not None:
                flying[rank] = positions
                group.send(rank, "shard", query_ids[positions], starts[positions], seed)

        with group.session():
            for rank in range(self._workers):
                release_next(rank)
            while flying:
                rank, (shard_flat, shard_hops, shard_counts) = group.recv("shard")
                positions = flying.pop(rank)
                release_next(rank)
                if tracer is not None:
                    tracer.instant("parallel.shard_merged", size=int(positions.size),
                                   hops=int(shard_hops.sum()))
                arrived.append((positions, shard_flat, shard_hops + 1))
                hops[positions] = shard_hops
                counts += shard_counts
        if tracer is not None:
            tracer.end(_t_dispatch, "parallel.dispatch", queries=num_queries,
                       shards=len(shards), workers=self._workers)

        # All hop counts in, the layout is known: each shard's compact
        # buffer moves to its queries' final slots with one scatter.
        offsets = path_offsets(hops + 1)
        flat = np.empty(int(offsets[-1]), dtype=np.int64)
        for positions, shard_flat, lengths in arrived:
            shift = offsets[positions] - path_offsets(lengths)[:-1]
            flat[np.repeat(shift, lengths) + np.arange(shard_flat.size)] = shard_flat
        return flat, offsets, counts
