"""Parent-side coordinator of the distributed walk engine.

:class:`DistWalkEngine` partitions the graph once (degree-aware, via the
parallel planner's cost model), serializes each shard into its own
shared-memory segment, and keeps one long-lived worker process per
shard.  A run is a sequence of parent-coordinated supersteps: the parent
broadcasts ``("step", k)`` to every shard, the shards advance their
resident walkers and forward departures to each other through per-pair
queues (see :mod:`repro.dist.worker`), and the parent stops as soon as
the global alive count hits zero.  Paths are assembled parent-side from
the shards' hop logs — every logged hop is ``(query position, step,
vertex)``, so assembly is one scatter per shard straight into the final
flat path buffer, regardless of how many times a walker changed shards.

Determinism contract: bit-identical ``WalkResults`` and ``EngineStats``
to ``run_walks_batch`` for any shard count and any forwarding
interleave, because walkers carry their own
``SeedSequence((seed, query_id))`` substream state across shard
boundaries.  Enforced by ``tests/dist/`` and
``benchmarks/bench_dist_engine.py``.
"""

from __future__ import annotations

from queue import Empty

import numpy as np

from repro.dist.shard import build_shard_stores, partition_vertices
from repro.dist.worker import shard_worker_main
from repro.errors import DistError, WalkConfigError
from repro.graph.csr import CSRGraph
from repro.obs.trace import active as _active_tracer
from repro.parallel.engine import _pick_context, default_workers
from repro.sampling.vectorized import VectorizedKernel, seed_sequence_states
from repro.walks.base import WalkSpec, start_path_buffer
from repro.walks.engine import STAT_FIELDS, PreparedEngine, prepared_kernel

#: Upper bound on any single worker reply.  Supersteps are vectorized
#: and bounded by the shard's resident count, so a silent worker past
#: this is dead, not slow.
_REPLY_TIMEOUT = 300.0


class DistWalkEngine(PreparedEngine):
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
    runs_after_close = False

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

        _, kernel = prepared_kernel(spec, sampler, graph)
        self._owner = partition_vertices(graph, spec, self._num_shards)
        self._stores = build_shard_stores(
            graph, kernel.state_arrays(), self._owner, self._num_shards
        )
        self._processes: list = []
        self._ctrl: list = []
        self._out = None
        try:
            context = _pick_context()
            out = context.Queue()
            self._ctrl = [context.Queue() for _ in range(self._num_shards)]
            # pair[i][j] carries walkers departing shard i for shard j.
            pair = {
                i: {
                    j: context.Queue()
                    for j in range(self._num_shards)
                    if j != i
                }
                for i in range(self._num_shards)
            }
            for shard in range(self._num_shards):
                send_queues = pair[shard]
                recv_queues = {
                    peer: pair[peer][shard]
                    for peer in range(self._num_shards)
                    if peer != shard
                }
                process = context.Process(
                    target=shard_worker_main,
                    args=(
                        shard,
                        self._stores[shard].handle,
                        spec,
                        sampler,
                        self._ctrl[shard],
                        out,
                        send_queues,
                        recv_queues,
                    ),
                    daemon=True,
                )
                process.start()
                self._processes.append(process)
            self._out = out
            self._gather("ready")
        except BaseException:
            for process in self._processes:
                if process.is_alive():
                    process.terminate()
            self._processes = []
            self._out = None
            for store in self._stores:
                store.close()
            raise

    @property
    def shards(self) -> int:
        return self._num_shards

    def _gather(self, kind: str) -> list[tuple]:
        """One reply of ``kind`` from every shard, any arrival order.

        A worker that crashed reports ``("error", ...)`` instead; its
        traceback is re-raised here so failures surface with the shard's
        real stack, never as a bare timeout.
        """
        replies = []
        for _ in range(self._num_shards):
            try:
                message = self._out.get(timeout=_REPLY_TIMEOUT)
            except Empty:
                raise DistError(
                    f"shard worker sent no {kind!r} reply within "
                    f"{_REPLY_TIMEOUT:.0f}s — worker presumed dead"
                ) from None
            if message[0] == "error":
                raise DistError(
                    f"shard {message[1]} failed: {message[2]}\n{message[3]}"
                )
            if message[0] != kind:
                raise DistError(
                    f"protocol violation: expected {kind!r} from shard "
                    f"workers, got {message[0]!r}"
                )
            replies.append(message)
        return replies

    def _run_arrays(self, query_ids, starts, seed):
        if self._out is None:
            raise WalkConfigError("dist engine is closed")
        num_queries = starts.size

        tracer = _active_tracer()
        if tracer is not None:
            _t_plan = tracer.begin()
        states = seed_sequence_states(seed, query_ids)
        start_owner = self._owner[starts]
        for shard in range(self._num_shards):
            mine = np.nonzero(start_owner == shard)[0]
            self._ctrl[shard].put(("run", mine, starts[mine], states[mine]))
        if tracer is not None:
            tracer.end(_t_plan, "dist.plan", queries=num_queries,
                       shards=self._num_shards)
            _t_dispatch = tracer.begin()

        alive = num_queries
        steps_run = 0
        forwarded_total = 0
        per_shard_processed = np.zeros(self._num_shards, dtype=np.int64)
        for step in range(self._spec.max_length):
            if alive == 0:
                break
            for ctrl in self._ctrl:
                ctrl.put(("step", step))
            alive = 0
            step_forwarded = 0
            for message in self._gather("stepped"):
                _, shard, shard_alive, shard_forwarded, shard_processed = message
                alive += shard_alive
                step_forwarded += shard_forwarded
                per_shard_processed[shard] += shard_processed
            forwarded_total += step_forwarded
            steps_run += 1
            if tracer is not None:
                tracer.instant("dist.step", step=step, alive=alive,
                               forwarded=step_forwarded)
        if tracer is not None:
            tracer.end(_t_dispatch, "dist.dispatch", steps=steps_run,
                       forwarded=forwarded_total, shards=self._num_shards)
            _t_merge = tracer.begin()

        for ctrl in self._ctrl:
            ctrl.put(("collect",))
        log = []
        counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
        hops = np.zeros(num_queries, dtype=np.int64)
        for _, _shard, positions, steps, vertices, shard_counts in self._gather("collected"):
            log.append((positions, steps, vertices))
            hops += np.bincount(positions, minlength=num_queries)
            counts += shard_counts
        # Every logged hop names its query row and step, so each shard's
        # log lands in the final flat buffer with one scatter.
        flat, offsets = start_path_buffer(starts, hops)
        for positions, steps, vertices in log:
            flat[offsets[positions] + steps + 1] = vertices
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

    def _adopt(self, graph: CSRGraph, kernel: VectorizedKernel) -> None:
        """Point the live shard workers at a new graph version.

        Barrier-like protocol: the parent repartitions, serializes one
        fresh segment per shard, broadcasts exactly one ``adopt`` per
        worker, and only after *every* worker has acked does it unlink
        the old segments — no worker can observe a mixed epoch, and no
        walkers exist between runs to straddle one.  A failed broadcast
        closes the new segments and leaves the old generation live.
        """
        if self._out is None:
            raise WalkConfigError("dist engine is closed")
        if graph.num_vertices != self._graph.num_vertices:
            raise WalkConfigError(
                f"cannot swap to a graph with {graph.num_vertices} vertices; "
                f"the engine was built for {self._graph.num_vertices}"
            )
        tracer = _active_tracer()
        if tracer is not None:
            _t_swap = tracer.begin()
        owner = partition_vertices(graph, self._spec, self._num_shards)
        new_stores = build_shard_stores(
            graph, kernel.state_arrays(), owner, self._num_shards
        )
        try:
            for shard, ctrl in enumerate(self._ctrl):
                ctrl.put(("adopt", new_stores[shard].handle))
            acked = {message[1] for message in self._gather("adopted")}
            if acked != set(range(self._num_shards)):  # pragma: no cover
                raise DistError(
                    f"graph swap acked by shards {sorted(acked)} of "
                    f"{self._num_shards}"
                )
        except Exception:
            for store in new_stores:
                store.close()
            raise
        old_stores = self._stores
        self._stores = new_stores
        for store in old_stores:
            store.close()
        self._graph = graph
        self._owner = owner
        if tracer is not None:
            tracer.end(_t_swap, "dist.swap", shards=self._num_shards)

    def close(self) -> None:
        """Stop the workers and unlink every shard segment."""
        if self._out is not None:
            for ctrl in self._ctrl:
                ctrl.put(("stop",))
            for process in self._processes:
                process.join(timeout=10)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                    process.join(timeout=5)
            self._processes = []
            self._out = None
        for store in self._stores:
            store.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass
