"""Personalized PageRank (PPR) walks.

Monte-Carlo PPR: walks start at the personalization vertex, move
uniformly, and terminate after each hop with probability ``alpha`` (the
teleport probability — a host-programmable AXI4-Lite register in the real
accelerator, Section VII).  Walk lengths are therefore geometric — the
probabilistic-termination imbalance in Figure 1b that static schedules
can't absorb.

The visit frequencies of terminated walks estimate the PPR vector, which
:func:`estimate_ppr` exposes for the example applications.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WalkConfigError
from repro.sampling.uniform import UniformSampler
from repro.walks.base import DEFAULT_MAX_LENGTH, WalkSpec, WalkResults


class PPRSpec(WalkSpec):
    """PPR walk with per-step termination probability ``alpha``."""

    name = "PPR"
    #: The teleport probability is the same at every hop.
    step_invariant = True
    needs_prev_vertex = False

    def __init__(self, alpha: float = 0.15, max_length: int = DEFAULT_MAX_LENGTH) -> None:
        super().__init__(max_length=max_length)
        if not 0.0 < alpha < 1.0:
            raise WalkConfigError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha

    def make_sampler(self) -> UniformSampler:
        return UniformSampler()

    def termination_probability(self, step: int) -> float:
        return self.alpha

    def expected_length(self) -> float:
        """Mean walk length implied by geometric termination (capped)."""
        # E[min(Geom(alpha), L)] = (1 - (1-alpha)**L) / alpha
        return (1.0 - (1.0 - self.alpha) ** self.max_length) / self.alpha


def estimate_ppr(results: WalkResults, num_vertices: int) -> np.ndarray:
    """Monte-Carlo PPR estimate from walk endpoints.

    The standard estimator: the PPR score of ``v`` is the fraction of
    walks that *terminate* at ``v``.
    """
    counts = np.zeros(num_vertices, dtype=np.float64)
    for path in results.paths:
        counts[int(path[-1])] += 1.0
    total = counts.sum()
    if total == 0:
        raise WalkConfigError("cannot estimate PPR from zero completed walks")
    return counts / total
