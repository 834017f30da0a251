"""Worker-process side of the parallel walk engine.

Each worker of the :class:`~repro.parallel.runtime.WorkerGroup` holds
one :class:`ShardRunner` over the shared-memory graph the runtime
attached for it (zero-copy views): it loads its vectorized sampling
kernel from the broadcast prepared state — no per-worker alias-table or
edge-key builds — and holds an *array engine* over the two: the same
:class:`~repro.walks.batch.BatchEngine` / ``JitEngine`` the registry
serves, so a shard request runs the very hook a single-process run does.
Results travel back as one compact path buffer per shard, not per-path
objects, so the pickling cost stays one buffer per shard.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.shared_graph import (
    SharedArrayStore,
    graph_from_store,
    kernel_from_store,
)


class ShardRunner:
    """What one parallel worker holds between requests.

    ``sampler_mode`` picks the kernel family (``"auto"`` = hybrid) — the
    parent broadcasts the prepared state either way, so the worker only
    instantiates the matching shell and loads it.  ``engine_class`` is
    the per-shard core: the batch superstep engine or the fused-kernel
    jit engine (bit-identical; the parent only requests the latter when
    numba is importable).
    """

    def __init__(self, rank: int, store: SharedArrayStore, spec,
                 sampler_mode: str, engine_class) -> None:
        self._recipe = (engine_class, spec, sampler_mode)
        self.adopt(store)

    def adopt(self, store: SharedArrayStore) -> None:
        """Build the array engine over a (new) attached segment."""
        engine_class, spec, sampler_mode = self._recipe
        graph = graph_from_store(store)
        kernel = kernel_from_store(spec, sampler_mode, store)
        self._engine = engine_class(graph, spec, sampler_mode, kernel=kernel)

    def shard(self, query_ids, starts, seed):
        """Run one shard; returns ``(flat_paths, hops, stat_counts)``.

        ``flat_paths`` is the shard's compact path buffer and
        ``stat_counts`` its counters, both exactly as the engine's array
        hook returns them; the parent remembers which batch positions it
        sent this worker, so they do not ride along.
        """
        flat, offsets, counts = self._engine._run_arrays(query_ids, starts, seed)
        return flat, np.diff(offsets) - 1, counts
