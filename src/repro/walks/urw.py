"""Uniform random walk (URW) — unbiased first-order walks.

Each hop picks an out-neighbor uniformly at random; the walk ends at the
maximum length or on reaching a dangling vertex.
"""

from __future__ import annotations

from repro.sampling.uniform import UniformSampler
from repro.walks.base import DEFAULT_MAX_LENGTH, WalkSpec


class URWSpec(WalkSpec):
    """Uniform random walk specification."""

    name = "URW"
    #: No hook reads the hop index.
    step_invariant = True
    needs_prev_vertex = False

    def __init__(self, max_length: int = DEFAULT_MAX_LENGTH) -> None:
        super().__init__(max_length=max_length)

    def make_sampler(self) -> UniformSampler:
        return UniformSampler()
