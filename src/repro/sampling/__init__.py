"""Sampling substrate: the Table I sampling algorithms behind one protocol."""

from repro.sampling.alias_sampler import AliasSampler
from repro.sampling.base import Sampler
from repro.sampling.hybrid import make_walk_kernel
from repro.sampling.rejection import RejectionSampler
from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.uniform import UniformSampler
from repro.sampling.vectorized import (
    BatchSample,
    QueryStream,
    QueryStreams,
    SamplerState,
    VectorizedKernel,
    make_kernel,
)

__all__ = [
    "AliasSampler",
    "BatchSample",
    "QueryStream",
    "QueryStreams",
    "VectorizedKernel",
    "make_kernel",
    "make_walk_kernel",
    "RejectionSampler",
    "ReservoirSampler",
    "SamplerState",
    "Sampler",
    "UniformSampler",
]
