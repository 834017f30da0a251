"""Sampler protocol shared by all GRW sampling algorithms (Table I).

A sampler answers one question: *given the current vertex's neighbor list,
which within-neighborhood index does the walk take?*  That is exactly the
job of the hardware Sampling module sitting between Row Access and Column
Access.  Each sampler answers it through one call,
:meth:`Sampler.draw`, which the reference engine's loop and the cycle
model's Sampling module both make, drawing from the query's own
:class:`~repro.sampling.vectorized.QueryStream`, so they draw alike.

A draw returns ``(index, proposals, neighbor_reads)``: the counters are
the decision's cost, because different samplers stress the memory system
differently — uniform/alias sampling touch O(1) entries per hop while
reservoir sampling scans the whole list (the effect behind the paper's
Node2Vec observations in Figure 9d), and the cycle model prices the
Sampling stage's occupancy and the column burst from them alone.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:
    from repro.sampling.vectorized import QueryStream


def normalize_seed(seed: int) -> int:
    """Map any Python int onto valid ``SeedSequence`` entropy.

    ``SeedSequence`` rejects negative integers; masking to 64 bits keeps
    the engines' historical "any int seed works" contract while staying
    deterministic (every distinct seed in ``[-2**63, 2**64)`` maps to a
    distinct stream key).
    """
    return int(seed) & (2**64 - 1)


def _tag_entropy(tag: int | str) -> int:
    """One ``SeedSequence`` entropy word per tag.

    String tags hash with a fixed polynomial (Python's ``hash`` is
    salted per process, so it must never feed a stream key); int tags
    pass through :func:`normalize_seed`.
    """
    if isinstance(tag, str):
        value = 0
        for char in tag:
            value = (value * 131 + ord(char)) & 0xFFFFFFFF
        return value
    return normalize_seed(tag)


def derive_seed(seed: int, *tags: int | str) -> int:
    """Collision-free child seed from a root seed and a tag path.

    The repository's determinism contract forbids deriving sub-seeds by
    arithmetic (``seed + 1`` and friends collide across call sites:
    run A's ``seed+2`` is run B's ``seed+1``, silently correlating
    streams that must be independent — ``repro lint`` rule RW102).
    This helper is the blessed alternative: the root seed and each tag
    become separate ``SeedSequence`` entropy words, so distinct tag
    paths give independent streams for *every* root seed, and the
    result is a plain int usable anywhere a seed is — including as the
    root of the engines' per-query ``SeedSequence((seed, query_id))``
    spawn keys.

    >>> derive_seed(7, "queries") != derive_seed(7, "engine")
    True
    """
    entropy = [normalize_seed(seed)]
    entropy.extend(_tag_entropy(tag) for tag in tags)
    sequence = np.random.SeedSequence(entropy)
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


#: The error text of a draw asked at a vertex with no out-edges.
DANGLING_MESSAGE = "cannot sample a neighbor of dangling vertex {}; terminate the walk instead"


class Sampler(ABC):
    """Base class for Table I sampling algorithms."""

    #: Row-pointer entry width in bits this sampler needs (Table I).
    rp_entry_bits: int = 64

    #: Human-readable name used in reports.
    name: str = "sampler"

    @abstractmethod
    def draw(self, graph: CSRGraph, vertex: int, degree: int, previous: int,
             admissible_type: int | None, stream: QueryStream) -> tuple[int, int, int]:
        """Decide one hop from ``vertex``, whose out-degree is ``degree``.

        Returns ``(index, proposals, neighbor_reads)``: the chosen
        within-neighborhood index, ``-1`` when no neighbor is admissible
        (MetaPath type mismatch — the walk terminates); the candidate
        draws made (rejection retries count here); and the
        neighbor-list entries fetched to decide (O(1) for uniform/alias,
        O(d) for reservoir scans and rejection adjacency probes).
        ``previous`` is the vertex the walk came from, ``-1`` for none
        (first hops, first-order walks); ``admissible_type`` is the edge
        type the hop must take, ``None`` for any.  ``degree < 1`` raises
        :class:`SamplingError`: callers end walks at dangling vertices
        before sampling.
        """

    def prepare(self, graph: CSRGraph) -> None:
        """Hook for per-graph preprocessing (alias table construction)."""
