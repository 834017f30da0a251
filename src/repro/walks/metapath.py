"""MetaPath random walks over heterogeneous (typed) graphs.

metapath2vec (Dong et al., KDD'17) constrains each hop to follow a
repeating pattern of edge types (e.g. Author-Paper-Venue-Paper-Author).
If the current vertex has *no* admissible out-edge the walk terminates
early — the paper highlights this as the irregularity that gives
RidgeWalker its larger win over LightRW on MetaPath (Figure 8d: 1.3-1.7x
vs 1.1-1.5x for Node2Vec).

Sampling among admissible neighbors is weighted reservoir sampling
(Table I: 128-bit RP entry), the single-pass scheme that composes the
type filter and edge weights without preprocessing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import WalkConfigError
from repro.sampling.reservoir import ReservoirSampler
from repro.walks.base import DEFAULT_MAX_LENGTH, WalkSpec


class MetaPathSpec(WalkSpec):
    """MetaPath walk following a cyclic edge-type pattern.

    Parameters
    ----------
    pattern:
        Sequence of edge-type labels; hop ``i`` must traverse an edge of
        type ``pattern[i % len(pattern)]``.
    """

    name = "MetaPath"
    needs_prev_vertex = False

    def __init__(
        self,
        pattern: Sequence[int],
        max_length: int = DEFAULT_MAX_LENGTH,
    ) -> None:
        super().__init__(max_length=max_length)
        if not pattern:
            raise WalkConfigError("pattern must contain at least one edge type")
        if any(t < 0 for t in pattern):
            raise WalkConfigError(f"edge types must be non-negative, got {list(pattern)}")
        self.pattern = tuple(int(t) for t in pattern)
        self._types = np.array(self.pattern, dtype=np.int64)

    def make_sampler(self) -> ReservoirSampler:
        return ReservoirSampler()

    def admissible_type(self, hops: int | np.ndarray) -> int | np.ndarray:
        """Edge type required on the hop taken at ``hops`` (its 0-based
        index): one per walker for an array of hop counts."""
        return self._types[hops % self._types.size]
