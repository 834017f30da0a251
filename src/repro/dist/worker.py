"""Shard worker process: local supersteps + walker forwarding.

Each worker of the :class:`~repro.parallel.runtime.WorkerGroup` holds
one :class:`_ShardState`: it owns one graph shard (attached zero-copy
from its shared segment) and holds the *resident* walkers — those whose
current vertex the shard owns.  A run proceeds in parent-coordinated
supersteps: on every ``superstep(k)`` request the worker advances all
residents one hop with the batch engine's own step function
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

import numpy as np

from repro.dist.shard import shard_view_from_store
from repro.parallel.shared_graph import SharedArrayStore, kernel_from_store
from repro.walks.batch import Frontier, superstep
from repro.walks.engine import STAT_FIELDS

_NO_VERTICES = np.empty(0, dtype=np.int64)


class _ShardState:
    """Everything one shard worker holds between requests: the runtime's
    handler for ``dist`` (``start_run``, ``superstep``, ``collect``,
    ``adopt``)."""

    def __init__(self, shard_id, store, spec, sampler_mode, send_queues, recv_queues):
        self._shard_id = shard_id
        self._spec = spec
        self._sampler_mode = sampler_mode
        self._send = send_queues
        self._recv = recv_queues
        self._peers = sorted(send_queues)
        self.adopt(store)
        self._reset_run()

    def adopt(self, store: SharedArrayStore) -> None:
        """Serve the shard in a (new) attached segment from now on."""
        self._view, self._owner = shard_view_from_store(store)
        self._kernel = kernel_from_store(self._spec, self._sampler_mode, store)

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
