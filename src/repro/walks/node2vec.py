"""Node2Vec — second-order biased walks.

Node2Vec (Grover & Leskovec, KDD'16) biases each hop by where the walk
just came from: return bias ``1/p``, in-neighborhood bias ``1``, explore
bias ``1/q``.  The paper evaluates both sampling strategies from Table I:

* **rejection sampling** for unweighted graphs (64-bit RP entry; used in
  the gSampler comparison, Figure 9d);
* **weighted reservoir sampling** for weighted graphs (128-bit RP entry;
  used in the LightRW comparison, Figure 8c).

Because the bias depends on the previous vertex, decomposed tasks carry
*two* dependent vertices — the higher-order case the paper's task tuple
explicitly supports ("or two vertices for higher-order walks like
Node2Vec", Section V-A).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WalkConfigError
from repro.graph.csr import CSRGraph
from repro.sampling.base import Sampler
from repro.sampling.rejection import RejectionSampler
from repro.sampling.reservoir import ReservoirSampler
from repro.walks.base import DEFAULT_MAX_LENGTH, WalkSpec

#: The paper's Node2Vec parameters (Section VIII-A4).
PAPER_P = 2.0
PAPER_Q = 0.5


class Node2VecSpec(WalkSpec):
    """Node2Vec specification.

    Parameters
    ----------
    p, q:
        Return and in-out parameters (paper default ``p=2, q=0.5``).
    strategy:
        ``"rejection"`` (unweighted graphs) or ``"reservoir"`` (weighted).
    """

    name = "Node2Vec"
    #: The bias reads the previous vertex, not the hop index.
    step_invariant = True
    needs_prev_vertex = True

    def __init__(
        self,
        p: float = PAPER_P,
        q: float = PAPER_Q,
        strategy: str = "rejection",
        max_length: int = DEFAULT_MAX_LENGTH,
    ) -> None:
        super().__init__(max_length=max_length)
        if p <= 0 or q <= 0:
            raise WalkConfigError(f"p and q must be positive, got p={p}, q={q}")
        if strategy not in ("rejection", "reservoir"):
            raise WalkConfigError(
                f"strategy must be 'rejection' or 'reservoir', got {strategy!r}"
            )
        self.p = p
        self.q = q
        self.strategy = strategy

    def make_sampler(self) -> Sampler:
        if self.strategy == "rejection":
            return RejectionSampler(p=self.p, q=self.q)
        return ReservoirSampler(p=self.p, q=self.q)


def exact_step_distribution(
    graph: CSRGraph, current: int, previous: int | None, p: float, q: float
) -> np.ndarray:
    """The exact Node2Vec transition distribution for one hop.

    Ground truth for the statistical tests: both rejection and reservoir
    sampling must converge to this distribution.  Weights (if any)
    multiply the structural bias, matching both sampler implementations.
    """
    neighbors = graph.neighbors(current)
    if neighbors.size == 0:
        raise WalkConfigError(f"vertex {current} has no out-neighbors")
    weights = graph.neighbor_weights(current).astype(np.float64).copy()
    if previous is not None:
        for i, candidate in enumerate(neighbors):
            candidate = int(candidate)
            if candidate == previous:
                weights[i] *= 1.0 / p
            elif graph.has_edge(previous, candidate):
                weights[i] *= 1.0
            else:
                weights[i] *= 1.0 / q
    return weights / weights.sum()
