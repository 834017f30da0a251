"""Uniform neighbor sampling (URW, PPR — Table I row 1).

One random draw, one column-list access; the 64-bit RP entry holds just
``(channel id, address, degree)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.sampling.base import DANGLING_MESSAGE, Sampler

if TYPE_CHECKING:
    from repro.sampling.vectorized import QueryStream


class UniformSampler(Sampler):
    """Pick each out-neighbor with equal probability."""

    rp_entry_bits = 64
    name = "uniform"

    def draw(self, graph: CSRGraph, vertex: int, degree: int, previous: int,
             admissible_type: int | None, stream: QueryStream) -> tuple[int, int, int]:
        """One draw, one read."""
        if degree < 1:
            raise SamplingError(DANGLING_MESSAGE.format(vertex))
        return stream.randint(degree), 1, 1
