"""DeepWalk — fixed-length walks for embedding corpora.

DeepWalk (Perozzi et al., KDD'14) generates fixed-length truncated walks
whose windows feed a skip-gram model.  On weighted graphs each hop draws
a neighbor proportionally to edge weight via **alias sampling** (Table I:
256-bit RP entry carrying the alias-table pointer), on unweighted graphs
the alias table degenerates to uniform.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from repro.sampling.alias_sampler import AliasSampler
from repro.walks.base import DEFAULT_MAX_LENGTH, WalkSpec, WalkResults


class DeepWalkSpec(WalkSpec):
    """DeepWalk specification (alias sampling, fixed length)."""

    name = "DeepWalk"
    needs_prev_vertex = False

    def __init__(self, max_length: int = DEFAULT_MAX_LENGTH) -> None:
        super().__init__(max_length=max_length)

    def make_sampler(self) -> AliasSampler:
        return AliasSampler()


def skip_gram_pairs(results: WalkResults, window: int = 5) -> Iterator[tuple[int, int]]:
    """Yield (center, context) pairs from walk paths, skip-gram style.

    This is the downstream consumer DeepWalk exists for; the embedding
    example uses it to build a co-occurrence model without needing a
    neural-network dependency.
    """
    for path in results.paths:
        n = path.size
        for i in range(n):
            lo = max(0, i - window)
            hi = min(n, i + window + 1)
            for j in range(lo, hi):
                if i != j:
                    yield int(path[i]), int(path[j])


def cooccurrence_counts(results: WalkResults, window: int = 5) -> Counter:
    """Counter of (center, context) pair frequencies."""
    counts: Counter = Counter()
    for pair in skip_gram_pairs(results, window=window):
        counts[pair] += 1
    return counts
