"""Uniform neighbor sampling (URW, PPR — Table I row 1).

One random draw, one column-list access; the 64-bit RP entry holds just
``(channel id, address, degree)``.
"""

from __future__ import annotations

from repro.graph.csr import CSRGraph
from repro.sampling.base import RandomSource, SampleOutcome, Sampler, StepContext


class UniformSampler(Sampler):
    """Pick each out-neighbor with equal probability."""

    rp_entry_bits = 64
    name = "uniform"

    def draw(
        self, graph: CSRGraph, vertex: int, degree: int, random_source: RandomSource
    ) -> int:
        """The index of ``vertex``'s next neighbour, ``degree >= 1``."""
        return random_source.randint(degree)

    def sample(
        self,
        graph: CSRGraph,
        context: StepContext,
        random_source: RandomSource,
    ) -> SampleOutcome:
        degree = self._require_degree(graph, context.vertex)
        index = self.draw(graph, context.vertex, degree, random_source)
        return SampleOutcome(index=index, proposals=1, neighbor_reads=1)
