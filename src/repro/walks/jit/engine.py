"""JIT walk engine: prepared typed-array state + fused kernel driver.

Public surface:

* :class:`JitEngine` — registered as ``--engine jit``.  With numba
  installed its array hook is the fused per-walker kernel
  (:mod:`repro.walks.jit.kernels`); without numba it warns once and is
  the batch engine, which is bit-identical by contract.
* :func:`run_walks_jit_arrays` — the dense array-level form (the
  equivalence tests and benchmarks call this directly; it always
  executes the kernel, compiled or interpreted).
* :func:`jit_state_from_kernel` — derives the kernel's typed-array state
  from a *prepared batch kernel*, so the jit engine consumes the exact
  same alias slots / CDF rows / edge keys / strategy codes the batch
  engine would, including those handed over by a dynamic
  ``GraphSnapshot`` through ``SamplerState.kernel_arrays``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.sampling.alias_sampler import AliasSampler
from repro.sampling.base import Sampler
from repro.sampling.hybrid import HybridKernel
from repro.sampling.its import InverseTransformSampler
from repro.sampling.rejection import _MAX_REJECTION_ROUNDS, RejectionSampler
from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.uniform import UniformSampler
from repro.sampling.vectorized import ALIAS_SLOT, VectorizedKernel, seed_sequence_states
from repro.walks.base import WalkSpec, compact_path_matrix, path_offsets
from repro.walks.batch import BatchEngine, dense_path_matrix
from repro.walks.engine import run_arrays
from repro.walks.jit import kernels
from repro.walks.jit.compat import NUMBA_AVAILABLE
from repro.walks.reference import EngineStats

_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I16 = np.empty(0, dtype=np.int16)
_EMPTY_SLOTS = np.empty(0, dtype=ALIAS_SLOT)

_BASE_CODES: tuple[tuple[type, int, int], ...] = (
    (UniformSampler, kernels.CODE_UNIFORM, kernels.FAMILY_FIRST),
    (AliasSampler, kernels.CODE_ALIAS, kernels.FAMILY_FIRST),
    (InverseTransformSampler, kernels.CODE_ITS, kernels.FAMILY_FIRST),
    (RejectionSampler, kernels.CODE_REJECTION, kernels.FAMILY_REJECTION),
    (ReservoirSampler, kernels.CODE_RESERVOIR, kernels.FAMILY_RESERVOIR),
)

#: Kernel death codes in :data:`~repro.walks.engine.STAT_FIELDS` order.
_CAUSE_ORDER = [
    kernels.CAUSE_DANGLING,
    kernels.CAUSE_EARLY,
    kernels.CAUSE_PROBABILISTIC,
    kernels.CAUSE_LENGTH,
]

_FALLBACK_WARNED = False


def warn_numba_fallback() -> None:
    """One warning per process: jit requested, numba absent, batch used."""
    global _FALLBACK_WARNED
    if _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED = True
    warnings.warn(
        "numba is not installed; engine 'jit' is falling back to the batch "
        "engine (paths are bit-identical, compiled speed is not) — install "
        "numba to enable the compiled kernels",
        RuntimeWarning,
        stacklevel=3,
    )


def reset_fallback_warning() -> None:
    """Re-arm the once-per-process fallback warning (test hook)."""
    global _FALLBACK_WARNED
    _FALLBACK_WARNED = False


@dataclass
class JitWalkState:
    """Typed arrays + scalars the fused kernel consumes.

    Everything here is derived from a prepared batch kernel (or a
    snapshot's ``SamplerState``), never built independently — one source
    of truth for the tables keeps the two engines bit-identical by
    construction.  Unused slots hold empty arrays so the kernel signature
    stays monomorphic for numba's type cache.
    """

    codes: np.ndarray
    family: int
    alias_slots: np.ndarray = field(default_factory=lambda: _EMPTY_SLOTS)
    its_cdf: np.ndarray = field(default_factory=lambda: _EMPTY_F64)
    its_row_totals: np.ndarray = field(default_factory=lambda: _EMPTY_F64)
    edge_keys: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    return_bias: float = 0.0
    explore_bias: float = 0.0
    max_bias: float = 0.0
    p_inv: float = 0.0
    q_inv: float = 0.0
    second_order: bool = False
    rejection_p: float = 0.0
    rejection_q: float = 0.0


def _base_code_and_family(base: Sampler) -> tuple[int, int]:
    for cls, code, family in _BASE_CODES:
        if isinstance(base, cls):
            return code, family
    raise SamplingError(
        f"no jit kernel family for sampler {base.name!r}; use another engine"
    )


def jit_state_from_arrays(
    graph: CSRGraph, base: Sampler, arrays: dict[str, np.ndarray]
) -> JitWalkState:
    """Build kernel state from prepared arrays (``state_arrays`` /
    ``SamplerState.kernel_arrays`` format).

    ``arrays`` carrying ``hybrid_strategy`` means auto mode (per-row
    codes); otherwise every row runs the base sampler's own strategy.
    Of an edge set's arrays only ``edge_keys`` is read (``edge_filter``
    is ignored): the kernel's scalar binary search makes identical
    decisions.
    """
    code, family = _base_code_and_family(base)
    if "hybrid_strategy" in arrays:
        codes = np.ascontiguousarray(arrays["hybrid_strategy"], dtype=np.int8)
    else:
        codes = np.full(graph.num_vertices, code, dtype=np.int8)
    state = JitWalkState(codes=codes, family=family)
    state.alias_slots = arrays.get("alias_slots", _EMPTY_SLOTS)
    state.its_cdf = arrays.get("its_cdf", _EMPTY_F64)
    state.its_row_totals = arrays.get("its_row_totals", _EMPTY_F64)
    state.edge_keys = arrays.get("edge_keys", _EMPTY_I64)
    if isinstance(base, RejectionSampler):
        state.return_bias = base.return_bias
        state.explore_bias = base.explore_bias
        state.max_bias = base.max_bias
        state.rejection_p = base.p
        state.rejection_q = base.q
    elif isinstance(base, ReservoirSampler):
        state.second_order = base.second_order
        if base.second_order:
            state.p_inv = 1.0 / base.p
            state.q_inv = 1.0 / base.q
    return state


def jit_state_from_kernel(
    graph: CSRGraph, spec: WalkSpec, kernel: VectorizedKernel
) -> JitWalkState:
    """Derive kernel state from a *prepared* batch kernel."""
    base = kernel.base if isinstance(kernel, HybridKernel) else spec.make_sampler()
    return jit_state_from_arrays(graph, base, kernel.state_arrays())


def fused_walk_arrays(
    graph: CSRGraph,
    spec: WalkSpec,
    state: JitWalkState,
    query_ids: np.ndarray,
    starts: np.ndarray,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused-kernel array hook: ``(flat, offsets, counts)`` for aligned
    id/start arrays, whether or not numba is installed (interpreted
    execution is the bit-identity test harness)."""
    num_queries = int(starts.size)
    max_length = int(spec.max_length)
    paths = np.empty((num_queries, max_length + 1), dtype=np.int64)
    hops = np.zeros(num_queries, dtype=np.int64)

    admissible = np.full(max_length, -1, dtype=np.int64)
    term_prob = np.zeros(max_length, dtype=np.float64)
    for step in range(max_length):
        at = spec.admissible_type(step)
        if at is not None:
            admissible[step] = at
        term_prob[step] = spec.termination_probability(step)
    if (
        admissible.size
        and admissible.max() >= 0
        and graph.edge_types is None
        and kernels.CODE_RESERVOIR in state.codes
    ):
        raise SamplingError("admissible_type given but the graph has no edge types")

    states = seed_sequence_states(seed, query_ids)
    cause = np.zeros(num_queries, dtype=np.uint8)
    counters = np.zeros(kernels.N_COUNTERS, dtype=np.int64)
    weights = graph.weights if graph.weights is not None else _EMPTY_F64
    edge_types = graph.edge_types if graph.edge_types is not None else _EMPTY_I16

    args = (
        graph.row_ptr,
        graph.col,
        weights,
        graph.weights is not None,
        edge_types,
        graph.num_vertices,
        state.edge_keys,
        state.codes,
        state.family,
        state.alias_slots["prob"],
        state.alias_slots["col"],
        state.alias_slots["alias_col"],
        state.its_cdf,
        state.its_row_totals,
        state.return_bias,
        state.explore_bias,
        state.max_bias,
        state.p_inv,
        state.q_inv,
        state.second_order,
        spec.needs_prev_vertex,
        admissible,
        term_prob,
        max_length,
        starts,
        states,
        paths,
        hops,
        cause,
        counters,
    )
    if NUMBA_AVAILABLE:
        kernels.walk_kernel(*args)
    else:
        # Interpreted execution hits NumPy's scalar uint64 overflow
        # warning on every wrapping stream bump; the wraparound *is* the
        # RNG, so silence it here (nopython wraps silently).
        with np.errstate(over="ignore"):
            kernels.walk_kernel(*args)

    if counters[kernels.IDX_REJECTION_OVERFLOW]:
        raise SamplingError(
            f"rejection sampling failed to accept after {_MAX_REJECTION_ROUNDS} "
            f"rounds (p={state.rejection_p}, q={state.rejection_q})"
        )
    deaths = np.bincount(cause, minlength=len(_CAUSE_ORDER))[_CAUSE_ORDER]
    counts = np.concatenate(
        (counters[[kernels.IDX_PROPOSALS, kernels.IDX_READS]], deaths)
    )
    # The kernel's dense matrix is compacted here so its padding never
    # leaves the engine (or, in a pool worker, the process).
    flat, lengths = compact_path_matrix(paths, hops)
    return flat, path_offsets(lengths), counts


class JitEngine(BatchEngine):
    """The batch engine with its superstep loop replaced by the fused
    per-walker kernel where numba can compile it.

    The typed-array state is a recast of the held batch kernel's arrays
    — one source of truth for the tables, so the two engines cannot
    drift.  The first :meth:`run` pays numba's compile (cached on disk
    via ``cache=True``); without numba the engine warns once per process
    and *is* the batch engine, bit-identically, and builds no state.
    """

    name = "jit"

    def __init__(self, graph, spec, sampler="default", kernel=None) -> None:
        if not NUMBA_AVAILABLE:
            warn_numba_fallback()
        super().__init__(graph, spec, sampler, kernel=kernel)

    def _adopt(self, graph: CSRGraph, kernel: VectorizedKernel) -> None:
        super()._adopt(graph, kernel)
        self._state = jit_state_from_kernel(graph, self._spec, kernel) if NUMBA_AVAILABLE else None

    def _run_arrays(self, query_ids, starts, seed):
        if self._state is None:
            return super()._run_arrays(query_ids, starts, seed)
        return fused_walk_arrays(self._graph, self._spec, self._state, query_ids, starts, seed)

    @property
    def open_frontier(self):
        """Offered only while this engine *is* the batch engine: the
        fused kernel runs a walk whole and has no superstep to open."""
        if self._state is not None:
            raise AttributeError("the compiled jit engine offers closed runs only")
        return super().open_frontier


def run_walks_jit_arrays(
    graph: CSRGraph,
    spec: WalkSpec,
    state: JitWalkState,
    start_vertices: np.ndarray,
    query_ids: np.ndarray,
    seed: int = 0,
    stats: EngineStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense one-call form of :func:`fused_walk_arrays`.

    Same contract as ``run_walks_batch_arrays`` — returns ``(paths,
    hops)`` with row ``k`` valid through ``paths[k, :hops[k] + 1]`` and
    accumulates every :class:`EngineStats` counter.  Always executes the
    kernel, compiled or interpreted; production fallback lives in
    :class:`JitEngine`.
    """
    hook = partial(fused_walk_arrays, graph, spec, state)
    starts = np.array(start_vertices, dtype=np.int64)
    return dense_path_matrix(*run_arrays(graph, hook, query_ids, starts, seed, stats))
