"""Worker-process side of the parallel walk engine.

Each pool worker attaches the shared-memory graph once at initialization
(zero-copy views), rebuilds its vectorized sampling kernel from the
broadcast prepared state — no per-worker alias-table or edge-key builds
— and then serves shard requests by running the batch engine's array
core.  Results travel back as one compact path buffer per shard, not
per-path objects, so the pickling cost stays one buffer per shard.

Module-level functions + globals (rather than closures) keep the worker
entry points picklable under every multiprocessing start method.
"""

from __future__ import annotations

import os

import numpy as np

from repro.parallel.shared_graph import (
    SharedArrayStore,
    SharedStoreHandle,
    graph_from_store,
    kernel_state_from_store,
)
from repro.sampling.hybrid import make_walk_kernel
from repro.walks.base import compact_path_matrix
from repro.walks.batch import STAT_FIELDS, run_walks_batch_flat
from repro.walks.jit import jit_state_from_kernel, run_walks_jit_arrays
from repro.walks.reference import EngineStats

_STORE: SharedArrayStore | None = None
_GRAPH = None
_SPEC = None
_KERNEL = None
_SWAP_BARRIER = None
_SAMPLER_MODE = "default"
_BACKEND = "batch"
_JIT_STATE = None
_INIT_ERROR: BaseException | None = None


def init_worker(
    handle: SharedStoreHandle,
    spec,
    untrack_segment: bool = False,
    swap_barrier=None,
    sampler_mode: str = "default",
    backend: str = "batch",
) -> None:
    """Pool initializer: attach the shared graph and load kernel state.

    ``untrack_segment`` is True for spawned workers (private resource
    tracker) and False for forked ones (shared tracker) — see
    :meth:`SharedArrayStore.attach`.  ``swap_barrier`` (one party per
    worker) synchronizes :func:`adopt_store` broadcasts during graph
    swaps.  ``sampler_mode`` picks the kernel family (``"auto"`` =
    hybrid) — the parent broadcasts the prepared state either way, so
    workers only instantiate the matching shell and load it.
    ``backend`` picks each worker's per-shard core: the batch superstep
    engine or the fused jit kernels (bit-identical; the parent only
    requests ``"jit"`` when numba is importable).  The jit state is a
    zero-copy recast of the loaded kernel's arrays.

    Failures are *stashed*, never raised: ``multiprocessing.Pool``
    respawns any worker whose initializer raises, so an error here —
    a corrupt handle, a kernel state that will not load — would loop
    crash-and-respawn forever with the parent hung on its first task
    and each dead worker leaking its half-initialized segment attach.
    Instead the attach is closed, the error is recorded, and the first
    task dispatched to this worker (:func:`run_shard` /
    :func:`adopt_store`) re-raises it into the parent's result path.
    """
    global _STORE, _GRAPH, _SPEC, _KERNEL, _SWAP_BARRIER, _SAMPLER_MODE
    global _BACKEND, _JIT_STATE, _INIT_ERROR
    _INIT_ERROR = None
    store = None
    try:
        store = SharedArrayStore.attach(handle, untrack=untrack_segment)
        graph = graph_from_store(store)
        kernel = make_walk_kernel(spec.make_sampler(), sampler_mode)
        kernel.load_state(kernel_state_from_store(store))
        jit_state = (
            jit_state_from_kernel(graph, spec, kernel) if backend == "jit" else None
        )
    except BaseException as error:
        if store is not None:
            store.close()
        _INIT_ERROR = error
        # Even a failed worker must hold its barrier party: a graph-swap
        # broadcast waits on every worker, and a missing party would
        # hang the healthy ones instead of surfacing this error.
        _SWAP_BARRIER = swap_barrier
        return
    _STORE = store
    _GRAPH = graph
    _SPEC = spec
    _SAMPLER_MODE = sampler_mode
    _KERNEL = kernel
    _BACKEND = backend
    _JIT_STATE = jit_state
    _SWAP_BARRIER = swap_barrier


def _check_init() -> None:
    """Surface a stashed initializer failure on the first real task."""
    if _INIT_ERROR is not None:
        raise _INIT_ERROR


def adopt_store(task):
    """Swap this worker onto a new shared graph segment; returns its pid.

    The engine broadcasts exactly one adopt task per worker.  Waiting at
    the barrier *before* swapping pins every worker on one task each — a
    worker blocked in the barrier cannot pull a second task off the pool
    queue, so the broadcast cannot skip a worker.  The parent
    cross-checks the returned pids anyway.
    """
    handle, untrack = task
    global _STORE, _GRAPH, _KERNEL, _JIT_STATE
    if _SWAP_BARRIER is not None:
        _SWAP_BARRIER.wait()
    # After the barrier, not before: a worker that failed to initialize
    # still shows up for the rendezvous, then reports its error.
    _check_init()
    old_store = _STORE
    _STORE = SharedArrayStore.attach(handle, untrack=untrack)
    _GRAPH = graph_from_store(_STORE)
    kernel = make_walk_kernel(_SPEC.make_sampler(), _SAMPLER_MODE)
    kernel.load_state(kernel_state_from_store(_STORE))
    _KERNEL = kernel
    if _BACKEND == "jit":
        _JIT_STATE = jit_state_from_kernel(_GRAPH, _SPEC, kernel)
    if old_store is not None:
        old_store.close()
    return os.getpid()


def run_shard(task):
    """Run one shard; returns ``(positions, flat_paths, hops, stat_counts)``.

    ``task`` is ``(positions, query_ids, start_vertices, seed)``; the
    positions index the original query batch and ride through untouched
    so the parent can merge shards deterministically in query order.
    ``flat_paths`` is the shard's compact path buffer — the batch core's
    native output; the jit kernels' dense matrix is compacted here so its
    padding never crosses the process boundary.
    """
    _check_init()
    positions, query_ids, starts, seed = task
    stats = EngineStats()
    if _BACKEND == "jit":
        paths, hops = run_walks_jit_arrays(
            _GRAPH, _SPEC, _JIT_STATE, starts, query_ids, seed=seed, stats=stats
        )
        flat, _ = compact_path_matrix(paths, hops)
    else:
        flat, offsets = run_walks_batch_flat(
            _GRAPH, _SPEC, _KERNEL, starts, query_ids, seed=seed, stats=stats
        )
        hops = np.diff(offsets) - 1
    counts = np.array([getattr(stats, name) for name in STAT_FIELDS], dtype=np.int64)
    return positions, flat, hops, counts
