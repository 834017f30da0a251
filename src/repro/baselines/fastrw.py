"""FastRW behavioral model (Gao et al., DATE'23) — the Figure 8a baseline.

FastRW is a dataflow accelerator that caches frequently-accessed vertices
in on-chip SRAM and pre-generates random numbers on the CPU.  The paper's
analysis (Observation #1, Figures 3a and 8a) attributes its behaviour to
three mechanisms, all modeled here:

* **cache cliff** — row-pointer/alias state for the hottest vertices
  lives on-chip; once the working set exceeds SRAM, every step becomes a
  dependent DRAM pointer chase.  Hit rates come from the *measured* visit
  distribution of the actual walks, with the hottest vertices cached
  first (frequency-based, as FastRW does).
* **blocking pointer chase** — the dataflow keeps only a couple of
  dependent accesses in flight per pipeline (``chase_depth``), so misses
  serialize on the DRAM round trip.
* **RNG streaming** — pre-generated random numbers are loaded from HBM,
  spending sequential bandwidth that graph accesses could have used.

Execution is batch-rounds with a barrier per round (static scheduling):
each round advances every live walk one step; the round ends when the
slowest pipeline finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.base import BaselineModel, WorkloadTrace, rng_words_per_step
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.memory.spec import HBM2_U50, MemorySpec
from repro.sim.stats import RunMetrics
from repro.walks.base import Query, WalkSpec

#: On-chip SRAM budget for the vertex cache.  An Alveo U50 exposes
#: roughly 25 MB of BRAM+URAM; the Table II stand-ins are scaled ~1/100,
#: so the cache scales identically to preserve the fits/doesn't-fit
#: boundary of Figure 3a (WG fits, LJ does not).
DEFAULT_CACHE_BYTES = 25 * 1024 * 1024 // 100


@dataclass(frozen=True)
class FastRWModel(BaselineModel):
    """Cost model for FastRW on an HBM FPGA."""

    memory: MemorySpec = HBM2_U50
    core_mhz: float = 300.0
    num_pipelines: int = 16
    batch_size: int = 256
    #: Dependent accesses a pipeline keeps in flight during pointer chase.
    chase_depth: int = 2
    cache_bytes: int = DEFAULT_CACHE_BYTES

    name = "FastRW"

    def run(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        queries: Sequence[Query],
        seed: int = 0,
    ) -> RunMetrics:
        if not queries:
            raise SimulationError("FastRW model needs at least one query")
        trace = WorkloadTrace(graph, spec, queries, seed=seed)
        hit_rate = self.cache_hit_rate(graph, spec, trace)

        tx_per_cycle = (
            self.memory.channel_tx_per_core_cycle(self.core_mhz)
            * self.memory.num_channels
        )
        seq_words_per_cycle = (
            self.memory.sequential_gbs * 1e9 / 8 / (self.core_mhz * 1e6)
        )
        round_trip = self.memory.round_trip_cycles
        rng_words = rng_words_per_step(spec, trace)

        total_cycles = 0.0
        total_tx = 0
        total_words = 0
        lengths = trace.lengths
        horizon = int(lengths.max()) if lengths.size else 0
        for batch_start in range(0, len(lengths), self.batch_size):
            batch = lengths[batch_start : batch_start + self.batch_size]
            for r in range(int(batch.max()) if batch.size else 0):
                alive = int((batch > r).sum())
                if alive == 0:
                    break
                # Memory demand of the round.
                misses = alive * (1.0 - hit_rate)
                random_tx = misses + alive  # RP misses + CL access per step
                bandwidth_cycles = random_tx / tx_per_cycle
                rng_cycles = alive * rng_words / seq_words_per_cycle
                # Dependent pointer chases serialize per pipeline.
                chase_cycles = (misses / self.num_pipelines) * (
                    round_trip / self.chase_depth
                )
                issue_cycles = alive / self.num_pipelines
                round_cycles = (
                    max(bandwidth_cycles, chase_cycles, issue_cycles) + rng_cycles
                )
                # Static schedule: barrier at the end of every round.
                total_cycles += round_cycles + round_trip / self.chase_depth
                total_tx += int(round(random_tx))
                total_words += int(round(random_tx + alive * rng_words))
        total_cycles = max(1.0, total_cycles)

        return RunMetrics(
            total_steps=trace.total_steps,
            cycles=int(round(total_cycles)),
            core_mhz=self.core_mhz,
            random_transactions=total_tx,
            words_transferred=total_words,
            peak_random_tx_per_cycle=tx_per_cycle,
            extra={
                "model": self.name,
                "cache_hit_rate": hit_rate,
                "cache_bytes": self.cache_bytes,
                "horizon": horizon,
            },
        )

    # ------------------------------------------------------------------
    # Cache model
    # ------------------------------------------------------------------
    def cache_hit_rate(
        self, graph: CSRGraph, spec: WalkSpec, trace: WorkloadTrace
    ) -> float:
        """Visit-weighted hit rate of the frequency-based vertex cache.

        FastRW caches the hottest vertices' row-pointer state (including
        alias metadata, hence the per-entry size follows Table I's RP
        entry width).  Over a production-sized query stream, frequency
        caching converges to holding the vertices with the highest
        stationary visit probability, which for random walks is the
        in-degree distribution — so the hit rate is the in-degree mass
        of the vertices that fit.  (Using the small traced sample would
        flatter the cache: a few hundred queries only ever visit a
        fraction of the graph.)
        """
        entry_bytes = spec.rp_entry_bits // 8
        capacity_vertices = self.cache_bytes // entry_bytes
        if capacity_vertices >= graph.num_vertices:
            return 1.0
        if capacity_vertices <= 0:
            return 0.0
        in_degree = np.bincount(graph.col, minlength=graph.num_vertices).astype(np.float64)
        total = in_degree.sum()
        if total == 0:
            return 0.0
        hottest = np.argsort(in_degree)[::-1][:capacity_vertices]
        return float(in_degree[hottest].sum() / total)

    def working_set_fits(self, graph: CSRGraph, spec: WalkSpec) -> bool:
        """Whether the whole RP array fits on-chip (Figure 3a boundary)."""
        return graph.row_pointer_bytes(spec.rp_entry_bits) <= self.cache_bytes
