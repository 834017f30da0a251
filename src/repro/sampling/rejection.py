"""Rejection sampling for Node2Vec on unweighted graphs (Table I row 3).

Node2Vec biases the choice of the next vertex ``x`` from current vertex
``v`` given the previous vertex ``t``:

* bias ``1/p`` when ``x == t``        (return),
* bias ``1``   when ``x`` is adjacent to ``t``  (distance 1),
* bias ``1/q`` otherwise              (explore).

Rejection sampling (used by gSampler and KnightKing) proposes a uniform
neighbor, then accepts with probability ``bias / max_bias``.  It needs no
preprocessing and keeps the RP entry at 64 bits, but each retry costs a
fresh proposal plus an adjacency probe of ``t``'s neighbor list — the
data-dependent inner loop the paper's scheduler absorbs.
"""

from __future__ import annotations

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.sampling.base import RandomSource, SampleOutcome, Sampler, StepContext

#: Safety valve: the accept probability is always >= min_bias/max_bias > 0,
#: so this bound is never hit in practice, but it turns a latent infinite
#: loop into a diagnosable error.
_MAX_REJECTION_ROUNDS = 10_000


class RejectionSampler(Sampler):
    """Node2Vec second-order sampling by acceptance/rejection."""

    rp_entry_bits = 64
    name = "rejection"

    def __init__(self, p: float = 2.0, q: float = 0.5) -> None:
        if p <= 0 or q <= 0:
            raise SamplingError(f"node2vec parameters must be positive, got p={p}, q={q}")
        self.p = p
        self.q = q
        # Public: the vectorized RejectionKernel reuses these derived
        # biases so both engines share one source of truth.
        self.return_bias = 1.0 / p
        self.explore_bias = 1.0 / q
        self.max_bias = max(self.return_bias, 1.0, self.explore_bias)

    def bias(self, graph: CSRGraph, prev_vertex: int | None, candidate: int) -> float:
        """The Node2Vec bias of moving to ``candidate``."""
        if prev_vertex is None:
            return 1.0  # first hop degenerates to uniform
        if candidate == prev_vertex:
            return self.return_bias
        if graph.has_edge(prev_vertex, candidate):
            return 1.0
        return self.explore_bias

    def sample(
        self,
        graph: CSRGraph,
        context: StepContext,
        random_source: RandomSource,
    ) -> SampleOutcome:
        degree = self._require_degree(graph, context.vertex)
        neighbors = graph.neighbors(context.vertex)
        prev = context.prev_vertex
        if prev is None:
            # First hop: every candidate has bias 1.0, so the walk is
            # exactly uniform — accept the first proposal outright rather
            # than spinning through rejections at probability 1/max_bias,
            # which inflated proposal/read counters in the cost models.
            return SampleOutcome(
                index=random_source.randint(degree), proposals=1, neighbor_reads=1
            )
        prev_degree = graph.degree(prev)
        reads = 0
        for proposals in range(1, _MAX_REJECTION_ROUNDS + 1):
            index = random_source.randint(degree)
            candidate = int(neighbors[index])
            reads += 1
            if candidate != prev:
                # Adjacency probe of t's neighbor list costs O(deg(t)) reads
                # in the worst case; hardware does a bounded scan.
                reads += prev_degree
            accept_probability = self.bias(graph, prev, candidate) / self.max_bias
            if random_source.uniform() < accept_probability:
                return SampleOutcome(index=index, proposals=proposals, neighbor_reads=reads)
        raise SamplingError(
            f"rejection sampling failed to accept after {_MAX_REJECTION_ROUNDS} "
            f"rounds at vertex {context.vertex} (p={self.p}, q={self.q})"
        )
