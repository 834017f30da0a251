"""Shared helpers for walkers a kernel leaves undecided (stalls).

A kernel call is one round of draws: a walker it cannot decide yet (a
rejected Node2Vec proposal) comes back stalled, and the engine's next
superstep asks again.  Tests that call a kernel directly, with no engine
around it, want each walker's *decision*; :func:`sample_decided` asks
again the way the supersteps would — the stalled walkers only, from
their own streams — and sums the rounds into one ``BatchSample``.

Also here: the retry-heavy Node2Vec corners every engine is held to, a
spec whose sampler accepts nothing, for the safety valve, and a teleport
that depends on the walker's own hop count.
"""

import numpy as np

from repro.sampling.vectorized import MAX_STALLS, BatchSample, sub_streams
from repro.walks import Node2VecSpec

#: ``(p, q)`` corners where most proposals are rejected: return-averse
#: with a strong explore pull, and return-seeking with an explore penalty.
RETRY_HEAVY = ((4.0, 0.25), (0.25, 4.0))


def sample_decided(kernel, graph, current, previous, admissible_type, streams, stream_idx):
    """``kernel.sample`` repeated over its stalled walkers until none is
    left: neighbour ids (``-1`` = nothing admissible) and the cost of
    every round."""
    degrees = graph.degrees()[current]
    batch = kernel.sample(graph, current, previous, admissible_type, streams, stream_idx,
                          degrees)
    vertex = batch.vertex.copy()
    proposals, reads = batch.proposals, batch.neighbor_reads
    pending = batch.stalled
    rounds = 1
    while pending.size:
        rounds += 1
        assert rounds <= MAX_STALLS, "kernel never decided its stalled walkers"
        batch = kernel.sample(graph, current[pending], previous[pending],
                              None if admissible_type is None else admissible_type[pending],
                              streams, sub_streams(stream_idx, pending), degrees[pending])
        vertex[pending] = batch.vertex
        proposals += batch.proposals
        reads += batch.neighbor_reads
        pending = pending[batch.stalled]
    return BatchSample(vertex, proposals=proposals, neighbor_reads=reads,
                       ended=np.flatnonzero(vertex == -1))


class NeverAccepting(Node2VecSpec):
    """Rejection Node2Vec whose sampler accepts no proposal: every hop
    after the first (accepted outright) is a stall, forever."""

    def make_sampler(self):
        sampler = super().make_sampler()
        # Every accept threshold is bias / max_bias = 0.
        sampler.max_bias = float("inf")
        return sampler


class HopTeleport:
    """Spec mixin: a walk ends after hop 2, 5, 8, ... (0-based) with
    probability 0.3 and never after any other — a hook that reads the
    walker's own hop count, answered in kind for an int or an array."""

    def termination_probability(self, hops):
        return np.where(np.asarray(hops) % 3 == 2, 0.3, 0.0)
