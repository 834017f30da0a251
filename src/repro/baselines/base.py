"""Common machinery for the baseline accelerator models.

Every baseline the paper compares against is closed-source (FastRW,
Su et al.) or hardware we do not have (LightRW bitstreams, gSampler on
H100).  Each model here is a *behavioral performance model*: walk
semantics come from the batch engine (held to the reference engine's
distribution, so the statistics are right), and timing comes from a
round-based cost model parameterized by the device and the architectural
property the paper identifies as that system's bottleneck (cache
collapse, static batch bubbles, blocking pointer chase, warp lockstep
divergence).

All models emit :class:`~repro.sim.stats.RunMetrics`, so benchmark
harnesses treat them interchangeably with the cycle-level RidgeWalker
simulator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling import AliasSampler, RejectionSampler, ReservoirSampler
from repro.sim.stats import RunMetrics
from repro.walks.base import Query, WalkSpec
from repro.walks.batch import run_walks_batch
from repro.walks.engine import EngineStats


class BaselineModel(ABC):
    """A modeled GRW system producing RunMetrics for a workload."""

    #: Display name used in benchmark tables.
    name: str = "baseline"

    @abstractmethod
    def run(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        queries: Sequence[Query],
        seed: int = 0,
    ) -> RunMetrics:
        """Execute the workload under this model."""


class WorkloadTrace:
    """Batch-engine trace shared by the cost models.

    Captures exactly what the round-based models need: per-query walk
    lengths (divergence and bubbles), in query order, and totals of
    sampling work (scans, proposals).
    """

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        queries: Sequence[Query],
        seed: int = 0,
    ) -> None:
        stats = EngineStats()
        run_walks_batch(graph, spec, queries, seed=seed, stats=stats)
        self.stats = stats
        self.lengths = np.asarray(stats.per_query_hops, dtype=np.int64)
        self.total_steps = int(self.lengths.sum())

    def mean_scan_words_per_step(self) -> float:
        """Average neighbor-list words a step needs the sampler to read."""
        if self.total_steps == 0:
            return 1.0
        return max(1.0, self.stats.neighbor_reads / self.total_steps)


def rng_words_per_step(spec: WalkSpec, trace: WorkloadTrace) -> float:
    """64-bit random words a step of ``trace`` consumed, on average.

    Read off the trace's counters, as each sampler draws: alias and
    rejection draw two uniforms a proposal (alias proposes once a hop), a
    reservoir scan one a neighbor entry it reads, uniform sampling one a
    hop.  (Used to price FastRW's CPU-pregenerated RNG stream, which
    travels through DRAM.)
    """
    if trace.total_steps == 0:
        return 0.0
    sampler = spec.make_sampler()
    stats = trace.stats
    if isinstance(sampler, (AliasSampler, RejectionSampler)):
        words = 2 * stats.sampling_proposals
    elif isinstance(sampler, ReservoirSampler):
        words = stats.neighbor_reads
    else:
        words = stats.total_hops
    return words / trace.total_steps
