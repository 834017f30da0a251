"""Weighted reservoir sampling (Node2Vec weighted, MetaPath — Table I).

LightRW and RidgeWalker both use single-pass weighted reservoir sampling
(the exponential-keys / A-ES scheme: keep the item maximizing
``u**(1/w)``) for walks whose per-neighbor weights are only known on the
fly — Node2Vec biases composed with edge weights, and MetaPath's
edge-type admissibility filter.  One pass over the neighbor list, O(d)
reads, no preprocessing; the RP entry is 128 bits (pointer + degree +
session metadata).

When *no* neighbor is admissible (MetaPath with a type nobody matches),
the draw returns index ``-1`` and the walk terminates — the
early-termination irregularity the zero-bubble scheduler exists to
absorb (Figure 8d).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.sampling.base import DANGLING_MESSAGE, Sampler

if TYPE_CHECKING:
    from repro.sampling.vectorized import QueryStream


class ReservoirSampler(Sampler):
    """Single-pass weighted sampling with optional Node2Vec bias and
    edge-type filtering."""

    rp_entry_bits = 128
    name = "reservoir"

    def __init__(self, p: float | None = None, q: float | None = None) -> None:
        if (p is None) != (q is None):
            raise SamplingError("p and q must be given together or not at all")
        if p is not None and (p <= 0 or q <= 0):
            raise SamplingError(f"node2vec parameters must be positive, got p={p}, q={q}")
        self.p = p
        self.q = q

    @property
    def second_order(self) -> bool:
        """Whether Node2Vec biases are applied."""
        return self.p is not None

    def draw(self, graph: CSRGraph, vertex: int, degree: int, previous: int,
             admissible_type: int | None, stream: QueryStream) -> tuple[int, int, int]:
        """The reservoir kernel's scan of one row: one uniform per eligible
        entry (weight > 0, admissible type), keys ``u**(1/w)``, ties to the
        later entry; every entry is read."""
        if degree < 1:
            raise SamplingError(DANGLING_MESSAGE.format(vertex))
        if admissible_type is not None and not graph.has_edge_types:
            raise SamplingError("admissible_type given but the graph has no edge types")
        weight = graph.neighbor_weights(vertex)
        if self.second_order and previous >= 0:
            neighbors = graph.neighbors(vertex)
            adjacent = np.isin(neighbors, graph.neighbors(previous))
            weight = weight * np.where(
                neighbors == previous, 1.0 / self.p, np.where(adjacent, 1.0, 1.0 / self.q))
        eligible = weight > 0
        if admissible_type is not None:
            eligible &= graph.neighbor_edge_types(vertex) == admissible_type
        u = np.ones(degree)
        u[eligible] = stream.element_uniforms(np.flatnonzero(eligible))
        # Guard u == 0: key would be 0 for every weight; nudge to the
        # smallest positive double instead so ordering stays correct.
        u[u == 0.0] = 5e-324
        with np.errstate(divide="ignore"):
            key = np.where(eligible, u ** (1.0 / weight), -1.0)
        best = degree - 1 - int(np.argmax(key[::-1]))
        return (best if key[best] > -0.5 else -1), 1, degree
