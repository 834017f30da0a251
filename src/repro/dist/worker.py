"""Shard worker process: local supersteps + walker forwarding.

Each worker of the :class:`~repro.parallel.runtime.WorkerGroup` holds
one :class:`_ShardState`: it owns one graph shard (attached zero-copy
from its shared segment) and holds the *resident* walkers — those whose
current vertex the shard owns.  A run proceeds in parent-coordinated
supersteps: on every ``superstep(k)`` request the worker takes all
residents through the batch engine's own step function
(:func:`repro.walks.batch.superstep` over a compact
:class:`~repro.walks.batch.Frontier`), then exchanges the survivors with
every peer shard through the per-pair queues.  A resident that stalled
(a rejected Node2Vec proposal) is a hop behind the superstep count, so
hop index and superstep are not the same number: each walker carries its
own hop count, ends on it (``max_length``), and its hops are logged under
it.

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
``(query position, hop count, vertex, previous vertex, rng state, stall
streak)`` and the receiving shard resumes it via
:meth:`QueryStreams.from_states`, so the draw sequence continues exactly
where it left off.  Shard count and routing interleave therefore cannot
change any path or any counter.
"""

from __future__ import annotations

import numpy as np

from repro.dist.shard import shard_view_from_store
from repro.parallel.shared_graph import SharedArrayStore, kernel_from_store
from repro.walks.batch import Frontier, superstep
from repro.walks.engine import STAT_FIELDS

_NO_VERTICES = np.empty(0, dtype=np.int64)
_LENGTH = STAT_FIELDS.index("length_terminations")


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
        self.start_run(_NO_VERTICES, _NO_VERTICES, np.empty(0, dtype=np.uint64), 0)

    def start_run(self, positions, vertices, states, num_queries) -> None:
        self._frontier = Frontier.start(
            np.ascontiguousarray(positions, dtype=np.int64),
            np.ascontiguousarray(vertices, dtype=np.int64),
            np.ascontiguousarray(states, dtype=np.uint64),
        )
        #: Hops walked so far, by query position (read for residents only).
        self._hops = np.zeros(num_queries, dtype=np.int64)
        self._log = [(_NO_VERTICES, _NO_VERTICES, _NO_VERTICES)]
        self._counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)

    def superstep(self, step: int) -> tuple[int, int, int]:
        """One superstep + peer exchange; ``(alive, forwarded, processed)``."""
        frontier, hops = self._frontier, self._hops
        processed = frontier.size
        pos, next_vertex, stalled = superstep(
            self._view, self._spec, self._kernel, step, frontier, self._counts
        )
        if stalled.size:
            moved = np.ones(pos.size, dtype=bool)
            moved[stalled] = False
            pos, next_vertex = pos[moved], next_vertex[moved]
        hop = hops[pos]
        self._log.append((pos, hop, next_vertex))
        hops[pos] = hop + 1
        # Walkers end on their own hop count; none has more hops than
        # supersteps have run.
        if step + 1 >= self._spec.max_length and frontier.size:
            short = hops[frontier.pos] < self._spec.max_length
            self._counts[_LENGTH] += short.size - np.count_nonzero(short)
            frontier.keep(short, self._spec.needs_prev_vertex)
        forwarded = self._exchange()
        return self._frontier.size, forwarded, processed

    def _exchange(self) -> int:
        """Route survivors by next-vertex owner; merge in immigrants.

        Send-all before receive-all, peers in ascending shard order on
        both sides, one message per peer per step even when empty — the
        lockstep contract the module docstring relies on.  A walker
        travels as its frontier entry plus its hop count.
        """
        frontier, hops = self._frontier, self._hops
        next_owner = self._owner[frontier.current]
        forwarded = 0
        for peer in self._peers:
            leaving = frontier.subset(next_owner == peer)
            self._send[peer].put((leaving, hops[leaving.pos]))
            forwarded += leaving.size
        parts = [frontier.subset(next_owner == self._shard_id)]
        for peer in self._peers:
            arrived, arrived_hops = self._recv[peer].get()
            hops[arrived.pos] = arrived_hops
            parts.append(arrived)
        self._frontier = Frontier.concat(parts)
        return forwarded

    def collect(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Drain this run's hop log — ``(query position, hop index,
        vertex)`` per hop — and counters; reset for the next run."""
        positions, hop_index, vertices = (np.concatenate(column) for column in zip(*self._log))
        counts = self._counts
        self._reset_run()
        return positions, hop_index, vertices, counts
