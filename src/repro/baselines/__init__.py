"""Baseline performance models: FastRW, LightRW, Su et al. and gSampler (GPU)."""

from repro.baselines.base import BaselineModel, WorkloadTrace, rng_words_per_step
from repro.baselines.fastrw import DEFAULT_CACHE_BYTES, FastRWModel
from repro.baselines.gpu import (
    H100_RANDOM_TX_PER_S,
    REAL_REGIME_BASE_MSTEPS,
    TX_PER_STEP,
    GPUModel,
)
from repro.baselines.lightrw import LightRWModel
from repro.baselines.su import SuModel

__all__ = [
    "BaselineModel",
    "DEFAULT_CACHE_BYTES",
    "FastRWModel",
    "GPUModel",
    "H100_RANDOM_TX_PER_S",
    "LightRWModel",
    "REAL_REGIME_BASE_MSTEPS",
    "SuModel",
    "TX_PER_STEP",
    "WorkloadTrace",
    "rng_words_per_step",
]
