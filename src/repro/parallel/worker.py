"""Worker-process side of the parallel walk engine.

Each pool worker attaches the shared-memory graph once at initialization
(zero-copy views), loads its vectorized sampling kernel from the
broadcast prepared state — no per-worker alias-table or edge-key builds
— and holds an *array engine* over the two: the same
:class:`~repro.walks.batch.BatchEngine` / ``JitEngine`` the registry
serves, so a shard request runs the very hook a single-process run does.
Results travel back as one compact path buffer per shard, not per-path
objects, so the pickling cost stays one buffer per shard.

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
    kernel_from_store,
)

_STORE: SharedArrayStore | None = None
_ENGINE = None
#: ``(engine_class, spec, sampler_mode)``: what :func:`_attach` builds.
_RECIPE = None
_SWAP_BARRIER = None
_INIT_ERROR: BaseException | None = None


def _attach(handle: SharedStoreHandle, untrack: bool):
    """Attach a segment; returns ``(store, array engine over it)``.

    Leak-safe: if rebuilding the graph, kernel or engine fails after the
    segment mapped, the attach is closed before the error propagates —
    a worker must never hold a mapping the parent cannot see.
    """
    engine_class, spec, sampler_mode = _RECIPE
    store = SharedArrayStore.attach(handle, untrack=untrack)
    try:
        graph = graph_from_store(store)
        kernel = kernel_from_store(spec, sampler_mode, store)
        return store, engine_class(graph, spec, sampler_mode, kernel=kernel)
    except BaseException:
        store.close()
        raise


def init_worker(
    handle: SharedStoreHandle,
    spec,
    untrack_segment: bool,
    swap_barrier,
    sampler_mode: str,
    engine_class,
) -> None:
    """Pool initializer: attach the shared graph and build the engine.

    ``untrack_segment`` is True for spawned workers (private resource
    tracker) and False for forked ones (shared tracker) — see
    :meth:`SharedArrayStore.attach`.  ``swap_barrier`` (one party per
    worker) synchronizes :func:`adopt_store` broadcasts during graph
    swaps.  ``sampler_mode`` picks the kernel family (``"auto"`` =
    hybrid) — the parent broadcasts the prepared state either way, so
    workers only instantiate the matching shell and load it.
    ``engine_class`` is each worker's per-shard core: the batch
    superstep engine or the fused-kernel jit engine (bit-identical; the
    parent only requests the latter when numba is importable).

    Failures are *stashed*, never raised: ``multiprocessing.Pool``
    respawns any worker whose initializer raises, so an error here —
    a corrupt handle, a kernel state that will not load — would loop
    crash-and-respawn forever with the parent hung on its first task.
    Instead the error is recorded, and the first task dispatched to this
    worker (:func:`run_shard` / :func:`adopt_store`) re-raises it into
    the parent's result path.
    """
    global _STORE, _ENGINE, _RECIPE, _SWAP_BARRIER, _INIT_ERROR
    _INIT_ERROR = None
    # Set before the attach: even a failed worker must hold its barrier
    # party — a graph-swap broadcast waits on every worker, and a missing
    # party would hang the healthy ones instead of surfacing the error.
    _SWAP_BARRIER = swap_barrier
    _RECIPE = (engine_class, spec, sampler_mode)
    try:
        _STORE, _ENGINE = _attach(handle, untrack_segment)
    except BaseException as error:
        _INIT_ERROR = error


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
    global _STORE, _ENGINE
    if _SWAP_BARRIER is not None:
        _SWAP_BARRIER.wait()
    # After the barrier, not before: a worker that failed to initialize
    # still shows up for the rendezvous, then reports its error.
    _check_init()
    old_store = _STORE
    _STORE, _ENGINE = _attach(handle, untrack)
    if old_store is not None:
        old_store.close()
    return os.getpid()


def run_shard(task):
    """Run one shard; returns ``(positions, flat_paths, hops, stat_counts)``.

    ``task`` is ``(positions, query_ids, start_vertices, seed)``; the
    positions index the original query batch and ride through untouched
    so the parent can merge shards deterministically in query order.
    ``flat_paths`` is the shard's compact path buffer and ``stat_counts``
    its counters, both exactly as the engine's array hook returns them.
    """
    _check_init()
    positions, query_ids, starts, seed = task
    flat, offsets, counts = _ENGINE._run_arrays(query_ids, starts, seed)
    return positions, flat, np.diff(offsets) - 1, counts
