"""Sampler protocol shared by all GRW sampling algorithms (Table I).

A sampler answers one question: *given the current vertex's neighbor list,
which within-neighborhood index does the walk take?*  That is exactly the
job of the hardware Sampling module sitting between Row Access and Column
Access; keeping the software contract identical lets the cycle simulator
and the pure-software reference engine share sampler implementations.
Both hand a sampler the one scalar random source, the query's own
:class:`~repro.sampling.vectorized.QueryStream`, so they draw alike.

Outcomes carry cost counters (memory reads of the neighbor list, proposal
attempts) because different samplers stress the memory system differently:
uniform/alias sampling touch O(1) entries per hop while reservoir
sampling scans the whole list — the effect behind the paper's Node2Vec
observations in Figure 9d.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph


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


class RandomSource(Protocol):
    """Uniform randomness interface consumed by samplers: one query's
    :class:`~repro.sampling.vectorized.QueryStream`, in the reference
    engine and in every task of the cycle model."""

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound); ``bound <= 0`` is a
        :class:`SamplingError`."""

    def element_uniforms(self, within: np.ndarray) -> np.ndarray:
        """One uniform per listed within-row index, in order (a reservoir
        scan's draws for the row entries it may pick)."""


@dataclass(frozen=True, slots=True)
class SampleOutcome:
    """Result of one sampling decision.

    Attributes
    ----------
    index:
        Chosen within-neighborhood index, or ``None`` when no admissible
        neighbor exists (MetaPath type mismatch) — the walk terminates.
    proposals:
        Number of candidate draws (rejection sampling retries count here).
    neighbor_reads:
        Neighbor-list entries the sampler had to *fetch* to decide; this
        feeds the memory cost model (O(1) for uniform/alias, O(d) for
        reservoir / rejection adjacency checks).
    """

    index: int | None
    proposals: int = 1
    neighbor_reads: int = 0

    @property
    def terminated(self) -> bool:
        """Whether the walk must end because nothing was admissible."""
        return self.index is None


@dataclass(frozen=True, slots=True)
class StepContext:
    """Everything a sampler may consult for one hop.

    ``prev_vertex`` is populated for second-order walks (Node2Vec);
    ``admissible_type`` for MetaPath-style edge-type constraints.
    """

    vertex: int
    prev_vertex: int | None = None
    admissible_type: int | None = None


class Sampler(ABC):
    """Base class for Table I sampling algorithms."""

    #: Row-pointer entry width in bits this sampler needs (Table I).
    rp_entry_bits: int = 64

    #: Human-readable name used in reports.
    name: str = "sampler"

    @abstractmethod
    def sample(
        self,
        graph: CSRGraph,
        context: StepContext,
        random_source: RandomSource,
    ) -> SampleOutcome:
        """Choose a neighbor index for the walk at ``context.vertex``.

        Implementations must raise :class:`SamplingError` when called on a
        vertex with zero out-degree; callers are expected to terminate
        walks at dangling vertices before sampling.
        """

    def prepare(self, graph: CSRGraph) -> None:
        """Hook for per-graph preprocessing (alias table construction)."""

    def _require_degree(self, graph: CSRGraph, vertex: int) -> int:
        degree = graph.degree(vertex)
        if degree == 0:
            raise SamplingError(
                f"cannot sample a neighbor of dangling vertex {vertex}; "
                "terminate the walk instead"
            )
        return degree
