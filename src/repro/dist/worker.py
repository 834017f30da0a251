"""Shard worker process: local supersteps + walker forwarding.

Each worker owns one graph shard (attached zero-copy from its shared
segment) and holds the *resident* walkers — those whose current vertex
the shard owns.  A run proceeds in parent-coordinated supersteps: on
every ``("step", k)`` control message the worker advances all residents
one hop with the batch engine's own step function
(:func:`repro.walks.batch.superstep` over a compact
:class:`~repro.walks.batch.Frontier`), then exchanges the survivors with
every peer shard through the per-pair queues.

The exchange is lockstep and therefore deadlock-free: each step, each
worker sends exactly one (possibly empty) walker batch to every peer,
then receives exactly one batch from every peer, always in ascending
shard order.  ``multiprocessing.Queue`` puts never block (a feeder
thread drains them), so the symmetric send-all-then-receive-all pattern
cannot cycle.

Bit-identity with :func:`repro.walks.batch.run_walks_batch` rests on two
facts.  First, every per-walker random draw in the vectorized kernels
consumes only that walker's own splitmix64 substream, in an order fixed
by the walker's own trajectory — never by which other walkers share the
frontier.  Second, a forwarded walker carries its raw substream state
``(query_id, step, vertex, rng state)`` and the receiving shard resumes
it via :meth:`QueryStreams.from_states`, so the draw sequence continues
exactly where it left off.  Shard count and routing interleave therefore
cannot change any path or any counter.
"""

from __future__ import annotations

import os
import traceback

import numpy as np

from repro.dist.shard import shard_view_from_store
from repro.parallel.shared_graph import SharedArrayStore, kernel_from_store
from repro.walks.batch import Frontier, superstep
from repro.walks.engine import STAT_FIELDS

_NO_VERTICES = np.empty(0, dtype=np.int64)


class _ShardState:
    """Everything one shard worker holds between control messages."""

    def __init__(self, shard_id, handle, spec, sampler_mode, send_queues, recv_queues):
        self._shard_id = shard_id
        self._spec = spec
        self._sampler_mode = sampler_mode
        self._send = send_queues
        self._recv = recv_queues
        self._peers = sorted(send_queues)
        self._store: SharedArrayStore | None = None
        self._view = None
        self._owner = None
        self._kernel = None
        self.adopt(handle)
        self._reset_run()

    def adopt(self, handle) -> None:
        """Attach a (new) shard segment; swap-safe and leak-safe.

        If rebuilding the view or kernel fails after the segment mapped,
        the attach is closed before the error propagates — the worker
        must never exit holding a mapping the parent cannot see
        (satellite audit of the shared-segment handoff).
        """
        store = SharedArrayStore.attach(handle, untrack=False)
        try:
            view, owner = shard_view_from_store(store)
            kernel = kernel_from_store(self._spec, self._sampler_mode, store)
        except BaseException:
            store.close()
            raise
        old_store = self._store
        self._store = store
        self._view = view
        self._owner = owner
        self._kernel = kernel
        if old_store is not None:
            old_store.close()

    def _reset_run(self) -> None:
        self.start_run(_NO_VERTICES, _NO_VERTICES, np.empty(0, dtype=np.uint64))

    def start_run(self, positions, vertices, states) -> None:
        self._frontier = Frontier.start(
            np.ascontiguousarray(positions, dtype=np.int64),
            np.ascontiguousarray(vertices, dtype=np.int64),
            np.ascontiguousarray(states, dtype=np.uint64),
        )
        self._log = [(_NO_VERTICES, _NO_VERTICES, _NO_VERTICES)]
        self._counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)

    def superstep(self, step: int) -> tuple[int, int, int]:
        """One frontier hop + peer exchange; ``(alive, forwarded, processed)``."""
        processed = self._frontier.size
        pos, next_vertex = superstep(
            self._view, self._spec, self._kernel, step, self._frontier, self._counts
        )
        self._log.append((pos, np.full(pos.size, step, dtype=np.int64), next_vertex))
        forwarded = self._exchange()
        return self._frontier.size, forwarded, processed

    def _exchange(self) -> int:
        """Route survivors by next-vertex owner; merge in immigrants.

        Send-all before receive-all, peers in ascending shard order on
        both sides, one message per peer per step even when empty — the
        lockstep contract the module docstring relies on.
        """
        frontier = self._frontier
        walkers = (frontier.pos, frontier.current, frontier.previous, frontier.state)
        next_owner = self._owner[frontier.current]
        forwarded = 0
        for peer in self._peers:
            departing = next_owner == peer
            self._send[peer].put(tuple(field[departing] for field in walkers))
            forwarded += int(np.count_nonzero(departing))
        staying = next_owner == self._shard_id
        parts = [tuple(field[staying] for field in walkers)]
        for peer in self._peers:
            parts.append(self._recv[peer].get())
        self._frontier = Frontier(*(np.concatenate(column) for column in zip(*parts)))
        return forwarded

    def collect(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Drain this run's hop log and counters; reset for the next run.

        Walkers still resident when the parent stops stepping ran to
        ``max_length`` — the batch engine's length-termination bucket.
        """
        self._counts[STAT_FIELDS.index("length_terminations")] += self._frontier.size
        positions, steps, vertices = (np.concatenate(column) for column in zip(*self._log))
        counts = self._counts
        self._reset_run()
        return positions, steps, vertices, counts

    def close(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None


def shard_worker_main(
    shard_id, handle, spec, sampler_mode, ctrl, out, send_queues, recv_queues
) -> None:
    """Process entry point: serve control messages until ``("stop",)``.

    Every failure — including during initialization — is reported to the
    parent as an ``("error", shard_id, summary, traceback)`` message so
    the engine can raise with the worker's real stack instead of hanging
    on a reply that will never come.
    """
    state = None
    try:
        state = _ShardState(
            shard_id, handle, spec, sampler_mode, send_queues, recv_queues
        )
        out.put(("ready", shard_id))
        while True:
            message = ctrl.get()
            kind = message[0]
            if kind == "run":
                state.start_run(message[1], message[2], message[3])
            elif kind == "step":
                alive, forwarded, processed = state.superstep(message[1])
                out.put(("stepped", shard_id, alive, forwarded, processed))
            elif kind == "collect":
                positions, steps, vertices, counts = state.collect()
                out.put(("collected", shard_id, positions, steps, vertices, counts))
            elif kind == "adopt":
                state.adopt(message[1])
                out.put(("adopted", shard_id, os.getpid()))
            elif kind == "stop":
                return
            else:
                raise ValueError(f"unknown dist control message {kind!r}")
    except BaseException as error:
        out.put(
            (
                "error",
                shard_id,
                f"{type(error).__name__}: {error}",
                traceback.format_exc(),
            )
        )
    finally:
        if state is not None:
            state.close()
