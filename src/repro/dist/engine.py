"""Parent-side coordinator of the distributed walk engine.

:class:`DistWalkEngine` partitions the graph once (degree-aware, via the
parallel planner's cost model), serializes each shard into its own
shared-memory segment, and keeps one long-lived worker process per
shard in a :class:`~repro.parallel.runtime.WorkerGroup`.  A run is a
sequence of parent-coordinated supersteps: the parent broadcasts
``superstep(k)`` to every shard, the shards advance their resident
walkers and forward departures to each other through per-pair queues
(see :mod:`repro.dist.worker`), and the parent stops as soon as no
shard holds a walker.  Paths are assembled parent-side from the shards'
hop logs — every logged hop is ``(query position, hop index, vertex)``,
keyed by the walker's own hop count (a stalled walker is behind the
superstep count), so assembly is one scatter per shard straight into
the final flat path buffer, regardless of how many times a walker
changed shards.

Determinism contract: bit-identical ``WalkResults`` and ``EngineStats``
to ``run_walks_batch`` for any shard count and any forwarding
interleave, because walkers carry their own
``SeedSequence((seed, query_id))`` substream state across shard
boundaries.  Enforced by ``tests/dist/`` and
``benchmarks/bench_dist_engine.py``.  A worker fault raises
:class:`~repro.errors.WorkerError` in seconds and closes the engine;
nothing leaks (:mod:`repro.parallel.runtime`).
"""

from __future__ import annotations

import numpy as np

from repro.dist.shard import build_shard_stores, partition_vertices
from repro.dist.worker import _ShardState
from repro.errors import WalkConfigError
from repro.graph.csr import CSRGraph
from repro.obs.trace import active as _active_tracer
from repro.parallel.engine import default_workers
from repro.parallel.runtime import WorkerGroup, WorkerGroupEngine, worker_context
from repro.parallel.shared_graph import SharedArrayStore
from repro.sampling.vectorized import VectorizedKernel, seed_sequence_states
from repro.walks.base import WalkSpec, start_path_buffer
from repro.walks.engine import STAT_FIELDS, prepared_kernel


class DistWalkEngine(WorkerGroupEngine):
    """A persistent ring of shard workers over a partitioned graph.

    Construction pays the one-time costs — kernel preparation,
    partitioning, per-shard segment serialization, worker start-up;
    every :meth:`run` after that only ships walker descriptors and hop
    logs.  Close the engine (or use it as a context manager) to stop the
    workers and unlink the segments.
    """

    name = "dist"
    #: ``shards`` sets the graph-partition (and worker) count.
    options = frozenset({"shards", "sampler"})

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        shards: int | None = None,
        sampler: str = "default",
    ) -> None:
        self._configure(graph, spec, sampler)
        if shards is not None and shards < 1:
            raise WalkConfigError(f"shards must be >= 1, got {shards}")
        self._num_shards = int(shards) if shards is not None else default_workers()
        #: Routing/occupancy telemetry of the most recent :meth:`run`
        #: (``steps``, ``forwarded``, ``forward_rate``,
        #: ``per_shard_processed``); the dist benchmark reports it.
        self.last_run_stats: dict | None = None

        graph, kernel = prepared_kernel(spec, sampler, graph)
        ranks = range(self._num_shards)
        context = worker_context()
        # pair[i][j] carries walkers departing shard i for shard j.
        pair = {i: {j: context.Queue() for j in ranks if j != i} for i in ranks}
        extras = [
            (spec, sampler, pair[shard],
             {peer: pair[peer][shard] for peer in ranks if peer != shard})
            for shard in ranks
        ]
        self._group = WorkerGroup(
            self.name, self._segments(graph, kernel), _ShardState, extras
        )

    def _segments(self, graph: CSRGraph, kernel: VectorizedKernel) -> list[SharedArrayStore]:
        # (Re)partition, then one segment per shard.
        owner = partition_vertices(graph, self._spec, self._num_shards)
        stores = build_shard_stores(graph, kernel.state_arrays(), owner, self._num_shards)
        self._owner = owner
        return stores

    @property
    def shards(self) -> int:
        return self._num_shards

    def _run_arrays(self, query_ids, starts, seed):
        num_queries = starts.size
        group = self._group

        tracer = _active_tracer()
        if tracer is not None:
            _t_plan = tracer.begin()
        states = seed_sequence_states(seed, query_ids)
        start_owner = self._owner[starts]
        log = []
        counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
        hops = np.zeros(num_queries, dtype=np.int64)
        with group.session():
            for shard in range(self._num_shards):
                mine = np.nonzero(start_owner == shard)[0]
                group.send(shard, "start_run", mine, starts[mine], states[mine], num_queries)
            group.gather("start_run")
            if tracer is not None:
                tracer.end(_t_plan, "dist.plan", queries=num_queries,
                           shards=self._num_shards)
                _t_dispatch = tracer.begin()

            alive = num_queries
            steps_run = 0
            forwarded_total = 0
            per_shard_processed = np.zeros(self._num_shards, dtype=np.int64)
            while alive:
                group.broadcast("superstep", steps_run)
                alive = 0
                step_forwarded = 0
                for shard, reply in enumerate(group.gather("superstep")):
                    shard_alive, shard_forwarded, shard_processed = reply
                    alive += shard_alive
                    step_forwarded += shard_forwarded
                    per_shard_processed[shard] += shard_processed
                forwarded_total += step_forwarded
                if tracer is not None:
                    tracer.instant("dist.step", step=steps_run, alive=alive,
                                   forwarded=step_forwarded)
                steps_run += 1
            if tracer is not None:
                tracer.end(_t_dispatch, "dist.dispatch", steps=steps_run,
                           forwarded=forwarded_total, shards=self._num_shards)
                _t_merge = tracer.begin()

            group.broadcast("collect")
            for positions, hop_index, vertices, shard_counts in group.gather("collect"):
                log.append((positions, hop_index, vertices))
                hops += np.bincount(positions, minlength=num_queries)
                counts += shard_counts
        # Every logged hop names its query row and hop index, so each
        # shard's log lands in the final flat buffer with one scatter.
        flat, offsets = start_path_buffer(starts, hops)
        for positions, hop_index, vertices in log:
            flat[offsets[positions] + hop_index + 1] = vertices
        total_hops = int(hops.sum())
        if tracer is not None:
            tracer.end(_t_merge, "dist.merge", queries=num_queries, hops=total_hops)
        self.last_run_stats = {
            "steps": steps_run,
            "forwarded": forwarded_total,
            "forward_rate": forwarded_total / total_hops if total_hops else 0.0,
            "per_shard_processed": per_shard_processed.tolist(),
        }
        return flat, offsets, counts
