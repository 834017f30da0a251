"""Pure-software reference walk engine.

Implements Algorithm II.1 of the paper directly: row access, sampling,
column access, termination check — one query at a time, no hardware
modelling.  Every accelerator model in this repository (RidgeWalker's
cycle simulator and all baselines) must produce walk *statistics*
indistinguishable from this engine; the integration test suite enforces
that with chi-square comparisons.

The engine is also the correctness oracle for downstream applications
(PPR estimation, DeepWalk corpora) in ``examples/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.base import (
    NumpyRandomSource,
    StepContext,
    normalize_seed,
)
from repro.walks.base import Query, WalkResults, WalkSpec


@dataclass
class EngineStats:
    """Cost counters accumulated while running the reference engine."""

    total_hops: int = 0
    sampling_proposals: int = 0
    neighbor_reads: int = 0
    early_terminations: int = 0
    dangling_terminations: int = 0
    probabilistic_terminations: int = 0
    length_terminations: int = 0
    per_query_hops: list[int] = field(default_factory=list)

    def imbalance_ratio(self) -> float:
        """max/mean of per-query hop counts (1.0 = perfectly balanced)."""
        hops = np.asarray(self.per_query_hops, dtype=np.float64)
        if hops.size == 0 or hops.mean() == 0:
            return 1.0
        return float(hops.max() / hops.mean())


def run_walks(
    graph: CSRGraph,
    spec: WalkSpec,
    queries: Sequence[Query],
    seed: int = 0,
    stats: EngineStats | None = None,
) -> WalkResults:
    """Execute ``queries`` under ``spec`` and return their paths.

    Deterministic in ``seed``; each query gets an independent substream so
    results do not depend on query order.  Pass an :class:`EngineStats`
    to collect cost counters (used by the baseline performance models).
    """
    sampler = spec.make_sampler()
    sampler.prepare(graph)
    results = WalkResults()
    seed = normalize_seed(seed)
    for query in queries:
        # SeedSequence((seed, query_id)) gives provably well-separated
        # substreams; the previous xor-mix derivation produced colliding
        # streams across (seed, query_id) pairs (e.g. (0, 1) and
        # (salt, 0) were identical).
        rng = NumpyRandomSource(
            np.random.default_rng(np.random.SeedSequence((seed, query.query_id)))
        )
        path = [query.start_vertex]
        current = query.start_vertex
        previous: int | None = None
        hops = 0
        for step in range(spec.max_length):
            if graph.degree(current) == 0:
                if stats is not None:
                    stats.dangling_terminations += 1
                break
            context = StepContext(
                vertex=current,
                prev_vertex=previous if spec.needs_prev_vertex else None,
                admissible_type=spec.admissible_type(step),
            )
            outcome = sampler.sample(graph, context, rng)
            if stats is not None:
                stats.sampling_proposals += outcome.proposals
                stats.neighbor_reads += outcome.neighbor_reads
            if outcome.terminated:
                if stats is not None:
                    stats.early_terminations += 1
                break
            next_vertex = int(graph.neighbors(current)[outcome.index])
            path.append(next_vertex)
            previous = current
            current = next_vertex
            hops += 1
            if spec.terminates_probabilistically(step, rng):
                if stats is not None:
                    stats.probabilistic_terminations += 1
                break
        else:
            if stats is not None:
                stats.length_terminations += 1
        results.add_path(path)
        if stats is not None:
            stats.total_hops += hops
            stats.per_query_hops.append(hops)
    return results

