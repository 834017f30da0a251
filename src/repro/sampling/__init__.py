"""Sampling substrate: the Table I sampling algorithms behind one protocol."""

from repro.sampling.alias_sampler import AliasSampler
from repro.sampling.base import (
    NumpyRandomSource,
    RandomSource,
    RingRandomSource,
    SampleOutcome,
    Sampler,
    StepContext,
)
from repro.sampling.hybrid import (
    SAMPLER_MODES,
    BiasedScanKernel,
    HybridConfig,
    HybridKernel,
    HybridSampler,
    make_walk_kernel,
    make_walk_sampler,
    resolve_strategy_codes,
    select_row_strategies,
    select_row_strategy,
    select_strategies,
    validate_sampler_mode,
)
from repro.sampling.its import (
    InverseTransformSampler,
    build_its_cdf,
    build_its_row_totals,
    exact_distribution,
)
from repro.sampling.rejection import RejectionSampler
from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.uniform import UniformSampler
from repro.sampling.vectorized import (
    BatchSample,
    ITSKernel,
    QueryStreams,
    VectorizedKernel,
    make_kernel,
)

__all__ = [
    "AliasSampler",
    "BatchSample",
    "BiasedScanKernel",
    "HybridConfig",
    "HybridKernel",
    "HybridSampler",
    "ITSKernel",
    "InverseTransformSampler",
    "NumpyRandomSource",
    "QueryStreams",
    "SAMPLER_MODES",
    "VectorizedKernel",
    "make_kernel",
    "make_walk_kernel",
    "make_walk_sampler",
    "RandomSource",
    "RejectionSampler",
    "ReservoirSampler",
    "RingRandomSource",
    "SampleOutcome",
    "Sampler",
    "StepContext",
    "UniformSampler",
    "build_its_cdf",
    "build_its_row_totals",
    "exact_distribution",
    "resolve_strategy_codes",
    "select_row_strategies",
    "select_row_strategy",
    "select_strategies",
    "validate_sampler_mode",
]
