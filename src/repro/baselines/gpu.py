"""gSampler GPU behavioral model (Gong et al., SOSP'23) — Figures 9/10.

gSampler is the state-of-the-art GPU graph-sampling engine.  The paper's
analysis pins its GRW behaviour on three mechanisms, which this model
captures explicitly:

* **warp lockstep divergence** — 32 walks share a warp; the warp stays
  resident until its *longest* walk finishes, so early-terminating lanes
  waste issue slots.  We compute the exact lockstep efficiency
  ``sum(lengths) / sum(32 * warp_max_length)`` from the traced walk
  length distribution — this is the quantity that collapses under the
  Graph500 initiator in Figure 10 and under PPR's geometric lengths in
  Figure 9a.
* **random-access memory bound** — the H100's measured random-access
  bandwidth caps step throughput at ``tx_rate / tx_per_step`` (the red
  dashed line of Figure 10).
* **operating-point calibration** — absolute per-algorithm rates on
  real-world graphs are taken from gSampler's published measurements
  (alias sampling doubles RNG and instruction count, so DeepWalk runs
  far below URW; rejection-sampled Node2Vec enjoys coalesced neighbor
  probes and runs fastest).  A cache factor derated by the *full-scale*
  dataset footprint vs the L2 capacity reproduces the paper's note that
  WG "fits largely in GPU cache".

Two regimes mirror the paper's two experimental setups:

* ``regime="real"`` (Figure 9): per-algorithm calibrated issue rates;
* ``regime="batch"`` (Figure 10): the memory-bound super-batched regime
  where balanced RMAT graphs run near the random-access peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.baselines.base import BaselineModel, WorkloadTrace
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.sim.stats import RunMetrics
from repro.walks.base import Query, WalkSpec

#: H100 random-access transactions per second (derived from the
#: random-access bandwidth benchmark the paper cites [57]).
H100_RANDOM_TX_PER_S = 20e9

#: H100 L2 capacity, for the cache factor.
H100_L2_BYTES = 50 * 1024 * 1024

#: Calibrated real-graph issue rates (MStep/s at lockstep efficiency 1),
#: keyed by sampler name.  Derived from the paper's measured speedups:
#: alias sampling "limits gSampler to just 0.9-2.4% of peak bandwidth",
#: rejection-sampled Node2Vec "allows GPU hardware to capture locality".
REAL_REGIME_BASE_MSTEPS = {
    "uniform": 560.0,
    "alias": 160.0,
    "rejection": 900.0,
    "reservoir": 400.0,
}

#: Random transactions per step, by sampler.
TX_PER_STEP = {
    "uniform": 2.0,
    "alias": 3.0,
    "rejection": 4.0,
    "reservoir": 4.0,
}


@dataclass(frozen=True)
class GPUModel(BaselineModel):
    """Cost model for gSampler on an H100-class GPU."""

    clock_mhz: float = 1000.0  # bookkeeping clock for RunMetrics
    warp_size: int = 32
    tx_rate_per_s: float = H100_RANDOM_TX_PER_S
    l2_bytes: int = H100_L2_BYTES
    regime: str = "real"
    #: Full-scale dataset footprint in bytes for the cache factor;
    #: ``None`` uses the simulated graph's own footprint.
    full_scale_bytes: int | None = None
    base_rates: dict = field(default_factory=lambda: dict(REAL_REGIME_BASE_MSTEPS))

    name = "gSampler"

    def __post_init__(self) -> None:
        if self.regime not in ("real", "batch"):
            raise SimulationError(f"regime must be 'real' or 'batch', got {self.regime!r}")
        if self.warp_size < 1:
            raise SimulationError("warp_size must be >= 1")

    # ------------------------------------------------------------------
    # Model components
    # ------------------------------------------------------------------
    def lockstep_efficiency(self, lengths: np.ndarray) -> float:
        """SIMT divergence loss: useful lane-steps over issued lane-steps.

        Queries fill warps in order; a warp issues (predicated) for all
        lanes until its slowest lane finishes.
        """
        if lengths.size == 0:
            return 1.0
        total_useful = float(lengths.sum())
        total_issued = 0.0
        for start in range(0, lengths.size, self.warp_size):
            warp = lengths[start : start + self.warp_size]
            total_issued += float(warp.max()) * self.warp_size
        if total_issued == 0:
            return 1.0
        return total_useful / total_issued

    def cache_factor(self, graph: CSRGraph) -> float:
        """Throughput derating when the working set spills the L2.

        ``hit_share`` of accesses are L2 hits (full rate); the rest pay
        the HBM random-access path at roughly half the effective rate.
        """
        footprint = self.full_scale_bytes
        if footprint is None:
            footprint = graph.total_bytes()
        hit_share = min(1.0, self.l2_bytes / max(1, footprint))
        return hit_share + (1.0 - hit_share) / 2.2

    def memory_bound_msteps(self, spec: WalkSpec) -> float:
        """The random-access ceiling (the red line of Figure 10)."""
        tx = TX_PER_STEP.get(spec.make_sampler().name, 2.0)
        return self.tx_rate_per_s / tx / 1e6

    def _issue_rate_msteps(self, spec: WalkSpec) -> float:
        sampler_name = spec.make_sampler().name
        if self.regime == "batch":
            return self.memory_bound_msteps(spec)
        try:
            return self.base_rates[sampler_name]
        except KeyError:
            raise SimulationError(f"no calibrated GPU rate for sampler {sampler_name!r}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        queries: Sequence[Query],
        seed: int = 0,
    ) -> RunMetrics:
        if not queries:
            raise SimulationError("GPU model needs at least one query")
        trace = WorkloadTrace(graph, spec, queries, seed=seed)
        efficiency = self.lockstep_efficiency(trace.lengths)
        cache = self.cache_factor(graph)
        rate_msteps = min(
            self._issue_rate_msteps(spec) * efficiency * cache,
            self.memory_bound_msteps(spec) * efficiency,
        )
        rate_msteps = max(rate_msteps, 1e-6)
        seconds = trace.total_steps / (rate_msteps * 1e6) if trace.total_steps else 1e-9
        cycles = max(1, int(round(seconds * self.clock_mhz * 1e6)))
        tx_per_step = TX_PER_STEP.get(spec.make_sampler().name, 2.0)
        total_tx = int(round(trace.total_steps * tx_per_step))
        return RunMetrics(
            total_steps=trace.total_steps,
            cycles=cycles,
            core_mhz=self.clock_mhz,
            random_transactions=total_tx,
            words_transferred=total_tx,
            peak_random_tx_per_cycle=self.tx_rate_per_s / (self.clock_mhz * 1e6),
            extra={
                "model": self.name,
                "regime": self.regime,
                "lockstep_efficiency": efficiency,
                "cache_factor": cache,
                "memory_bound_msteps": self.memory_bound_msteps(spec),
            },
        )
