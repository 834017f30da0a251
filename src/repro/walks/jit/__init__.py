"""Numba-JIT compiled walk engine (``--engine jit``).

Fused per-walker nopython loops over the same prepared sampler state the
batch engine uses — bit-identical paths, no superstep barrier.  Degrades
to the batch engine (with one warning) when numba is absent.
"""

from repro.walks.jit.compat import NUMBA_AVAILABLE, njit
from repro.walks.jit.engine import (
    JitEngine,
    JitWalkState,
    jit_state_from_arrays,
    jit_state_from_kernel,
    reset_fallback_warning,
    run_walks_jit_arrays,
    warn_numba_fallback,
)

__all__ = [
    "NUMBA_AVAILABLE",
    "njit",
    "JitEngine",
    "JitWalkState",
    "jit_state_from_arrays",
    "jit_state_from_kernel",
    "reset_fallback_warning",
    "run_walks_jit_arrays",
    "warn_numba_fallback",
]
