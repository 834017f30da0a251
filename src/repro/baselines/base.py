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


def rng_words_per_step(spec: WalkSpec) -> int:
    """64-bit random words one step of this algorithm consumes.

    Alias sampling needs two uniforms, rejection needs two per proposal;
    uniform sampling needs one.  (Used to price FastRW's CPU-pregenerated
    RNG stream, which travels through DRAM.)
    """
    sampler = spec.make_sampler()
    if sampler.name == "alias":
        return 2
    if sampler.name == "rejection":
        return 2
    return 1
