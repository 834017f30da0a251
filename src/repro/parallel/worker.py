"""Worker-process side of the parallel walk engine.

Each worker of the :class:`~repro.parallel.runtime.WorkerGroup` holds
one :class:`ShardRunner` over the shared-memory graph the runtime
attached for it (zero-copy views): it loads its vectorized sampling
kernel from the broadcast prepared state — no per-worker alias-table or
edge-key builds — and holds a :class:`~repro.walks.batch.BatchEngine`
over the two, so a shard request runs the very hook a single-process
run does.
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
from repro.walks.batch import BatchEngine


class ShardRunner:
    """What one parallel worker holds between requests.

    The parent broadcasts the spec kernel's prepared state, so the worker
    only instantiates the kernel shell and loads it.  Its engine runs each
    shard on one lane, however large: the workers are the fan-out.
    """

    def __init__(self, rank: int, store: SharedArrayStore, spec) -> None:
        self._spec = spec
        self.adopt(store)

    def adopt(self, store: SharedArrayStore) -> None:
        """Build the array engine over a (new) attached segment."""
        graph = graph_from_store(store)
        kernel = kernel_from_store(self._spec, store)
        self._engine = BatchEngine(graph, self._spec, kernel=kernel)
        # This process already owns a core: its shards never fan out.
        self._engine._one_lane = True

    def shard(self, query_ids, starts, seed):
        """Run one shard; returns ``(flat_paths, hops, stat_counts)``.

        ``flat_paths`` is the shard's compact path buffer and
        ``stat_counts`` its counters, both exactly as the engine's array
        hook returns them; the parent remembers which batch positions it
        sent this worker, so they do not ride along.
        """
        flat, offsets, counts = self._engine._run_arrays(query_ids, starts, seed)
        return flat, np.diff(offsets) - 1, counts
