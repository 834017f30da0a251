"""Runtime-adaptive hybrid sampling: one strategy per vertex row.

ThunderRW measured — and FlexiWalker exploits — that no single sampling
method wins across workloads: alias sampling is O(1) per draw but pays a
per-row build (and a rebuild on every mutation), an inverse-transform
CDF scan is nearly free to build and cheap on rows whose mass sits near
the front, rejection sampling needs no preprocessing but retries, and a
degenerate row (degree 0/1, all-equal weights) needs no weighted
machinery at all.  RidgeWalker keeps its sampling stage at initiation
interval 1 by fixing the strategy in hardware; the software analogue of
that guarantee is picking the *right* strategy per row up front so the
hot loop never meets a pathological row.

This module is that selection layer:

* :func:`select_strategies` — the cost model.  For every vertex row it
  scores degree, weight skew (the expected sequential-scan depth
  ``E[index + 1]``), and an expected mutation rate, and records a
  first-order choice among ``{uniform, ITS flat-CDF, alias}`` plus a
  second-order class among ``{uniform, exact-scan, heavy}``.
* :class:`HybridKernel` — the vectorized dispatcher.  A frontier is
  grouped by the strategy of each walker's current row and every group
  runs as one fused NumPy pass of the corresponding single-strategy
  kernel, so a mixed-strategy frontier costs one kernel call per
  *strategy*, not per row.  The second-order family's kernels
  (rejection, exact scan, reservoir) probe adjacency through one shared
  :class:`~repro.sampling.vectorized.EdgeSet`.
* :class:`HybridSampler` — the scalar twin for the reference engine.

**Determinism contract.**  Every per-walker draw depends only on that
walker's substream and its current row, never on how the frontier was
grouped — so for a *fixed* selection map, hybrid paths are bit-identical
to dispatching each row through its single-strategy kernel alone, and
identical across the batch, parallel and serving layers.  The selection
map itself is a pure function of the graph (plus an optional
:class:`HybridConfig`), so ``sampler="auto"`` is exactly as
deterministic as any fixed engine.  Every strategy realizes the walk
spec's exact per-hop distribution, so auto mode is also statistically
indistinguishable from the single-sampler engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SamplingError, WalkConfigError
from repro.graph.alias import build_alias_rows
from repro.graph.csr import CSRGraph
from repro.graph.rows import (
    degree_buckets,
    gather_rows,
    row_cumsums,
    row_sums,
    within_row_index,
)
from repro.sampling.alias_sampler import AliasSampler
from repro.sampling.base import RandomSource, SampleOutcome, Sampler, StepContext
from repro.sampling.its import InverseTransformSampler
from repro.sampling.rejection import RejectionSampler
from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.uniform import UniformSampler
from repro.sampling.vectorized import (
    NO_STALLS,
    AliasKernel,
    BatchSample,
    EdgeSet,
    ITSKernel,
    RejectionKernel,
    ReservoirKernel,
    UniformKernel,
    VectorizedKernel,
    make_kernel,
    neighbor_at,
    pack_alias_slots,
    sub_streams,
)

#: Per-row strategy codes (stored in selection maps and SamplerState).
STRATEGY_UNIFORM = 0
STRATEGY_ALIAS = 1
STRATEGY_ITS = 2
STRATEGY_REJECTION = 3
STRATEGY_RESERVOIR = 4
#: Degenerate rows (degree <= 1): the single neighbor is taken with
#: probability 1 under *any* walk law — positive weights and positive
#: Node2Vec biases normalize to 1 over one option — so these rows need
#: no randomness at all.  The hybrid dispatcher resolves them inline,
#: without a kernel call.
STRATEGY_ONE = 5
#: Sentinel used in the stored second-order column: "the base sampler's
#: own heavy path" — resolved to rejection or reservoir by the spec.
STRATEGY_HEAVY = 7

STRATEGY_NAMES = {
    STRATEGY_UNIFORM: "uniform",
    STRATEGY_ALIAS: "alias",
    STRATEGY_ITS: "its",
    STRATEGY_REJECTION: "rejection",
    STRATEGY_RESERVOIR: "reservoir",
    STRATEGY_ONE: "one",
    STRATEGY_HEAVY: "heavy",
}

_CODE_DTYPE = np.int8

#: Values every engine's ``sampler=`` option accepts.
SAMPLER_MODES = ("default", "auto")


def validate_sampler_mode(mode: str) -> str:
    """The one shared validator behind every engine's ``sampler=`` option."""
    if mode not in SAMPLER_MODES:
        raise WalkConfigError(
            f"unknown sampler option {mode!r}; valid choices: "
            f"{', '.join(SAMPLER_MODES)}"
        )
    return mode


@dataclass(frozen=True)
class HybridConfig:
    """Cost-model knobs for per-row strategy selection.

    ``small_degree``
        Rows at or below this degree always take the scan strategy (ITS
        flat-CDF / exact second-order scan): a handful of sequential
        reads beats both alias-table indirection and rejection retries.
    ``its_max_expected_reads``
        Weighted rows whose expected sequential-scan depth
        ``E[index + 1] = sum((i + 1) * w_i) / sum(w_i)`` is at or below
        this budget take ITS even at higher degrees — a dominant early
        edge makes the scan effectively O(1).
    ``update_rate``
        Expected per-row mutation rate (edge ops per row per epoch) the
        deployment anticipates.  Mutations rebuild the dirty rows'
        prepared state as one batch: ITS CDF rows for one bucketed
        ``cumsum``, alias rows for lock-step Vose rounds (one per pairing
        of the longest row) — so a declared churn rate widens the ITS
        read budget via ``update_bias``.
    ``update_bias``
        How strongly ``update_rate`` widens the ITS budget:
        ``budget = its_max_expected_reads * (1 + update_rate * update_bias)``.

    There is no knob for the second-order families' adjacency probe: they
    share one :class:`~repro.sampling.vectorized.EdgeSet` whose bit-filter
    size is a fixed rule.

    The dynamic subsystem maintains selection maps with the *default*
    config so snapshots stay bit-identical to from-scratch builds;
    custom configs are for explicitly constructed kernels.
    """

    small_degree: int = 8
    its_max_expected_reads: float = 4.0
    update_rate: float = 0.0
    update_bias: float = 16.0

    def __post_init__(self) -> None:
        if self.small_degree < 1:
            raise SamplingError(
                f"small_degree must be >= 1, got {self.small_degree}"
            )
        if self.its_max_expected_reads <= 0:
            raise SamplingError(
                "its_max_expected_reads must be positive, got "
                f"{self.its_max_expected_reads}"
            )
        if self.update_rate < 0 or self.update_bias < 0:
            raise SamplingError(
                "update_rate and update_bias must be non-negative, got "
                f"{self.update_rate} and {self.update_bias}"
            )

    @property
    def its_read_budget(self) -> float:
        """The churn-adjusted expected-scan-depth cutoff for ITS rows."""
        return self.its_max_expected_reads * (1.0 + self.update_rate * self.update_bias)


DEFAULT_CONFIG = HybridConfig()


def select_row_strategies(
    weights: np.ndarray | None,
    row_ptr: np.ndarray,
    config: HybridConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """The row-local cost model over a batch of rows.

    ``weights`` holds the rows back to back (``None`` on unweighted
    graphs) and ``row_ptr`` their ``len(rows) + 1`` offsets; returns the
    ``(len(rows), 2)`` int8 ``(first_order, second_order)`` codes.  This
    single function is the source of truth for the full
    :func:`select_strategies` pass (every row of the graph) and the
    dynamic subsystem's incremental re-evaluation (the dirty rows) —
    sharing it, including its exact float arithmetic, is what makes
    incrementally maintained selection maps bit-identical to
    from-scratch ones.
    """
    degrees = np.diff(row_ptr)
    codes = np.empty((degrees.size, 2), dtype=_CODE_DTYPE)
    codes[:, 1] = np.where(
        degrees <= 1,
        STRATEGY_ONE,
        np.where(degrees <= config.small_degree, STRATEGY_ITS, STRATEGY_HEAVY),
    )
    codes[:, 0] = np.where(degrees <= 1, STRATEGY_ONE, STRATEGY_UNIFORM)
    if weights is None:
        return codes
    for rows, index in degree_buckets(row_ptr, min_degree=2):
        bucket = weights[index]
        degree = bucket.shape[1]
        if degree <= config.small_degree:
            weighted = STRATEGY_ITS
        else:
            # Expected sequential-scan depth E[index + 1] of each row.
            expected_reads = (
                np.arange(1, degree + 1, dtype=np.float64) * bucket
            ).sum(axis=1) / bucket.sum(axis=1)
            weighted = np.where(
                expected_reads <= config.its_read_budget, STRATEGY_ITS, STRATEGY_ALIAS
            )
        # Equal weights: the weighted draw *is* the uniform draw.
        codes[rows, 0] = np.where(
            bucket.max(axis=1) == bucket.min(axis=1), STRATEGY_UNIFORM, weighted
        )
    return codes


def select_row_strategy(
    degree: int,
    weights: np.ndarray | None,
    config: HybridConfig = DEFAULT_CONFIG,
) -> tuple[int, int]:
    """One row's ``(first_order, second_order)`` codes — the one-row call
    of :func:`select_row_strategies`."""
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    codes = select_row_strategies(weights, np.array([0, degree], dtype=np.int64), config)
    return tuple(codes[0].tolist())


def select_strategies(
    graph: CSRGraph, config: HybridConfig = DEFAULT_CONFIG
) -> np.ndarray:
    """Per-vertex strategy codes, shape ``(num_vertices, 2)`` int8.

    Column 0 is the first-order weighted choice among
    ``{uniform, alias, its}``; column 1 the second-order class among
    ``{uniform, its, heavy}`` (``heavy`` resolving to the spec's own
    rejection/reservoir path).  Pure function of the graph and config.
    """
    return select_row_strategies(graph.weights, graph.row_ptr, config)


#: Exact-scan threshold for second-order rows: the scan (O(d) adjacency
#: probes per hop, no retries) replaces rejection only when rejection's
#: sparse-graph retry estimate exceeds this many rounds.
_SCAN_MIN_EXPECTED_ROUNDS = 2.0


def rejection_expected_rounds(base: RejectionSampler) -> float:
    """Sparse-graph retry estimate for rejection sampling.

    On a sparse graph almost every proposed candidate is an *explore*
    candidate (not adjacent to the previous vertex), so the acceptance
    probability concentrates at ``explore_bias / max_bias`` and the
    expected retry count at its inverse.  At the paper's ``p=2, q=0.5``
    that is 1.0 — rejection accepts almost every first proposal and no
    scan can beat it; at retry-hostile parameters (``p, q >> 1``) it
    grows to ``q`` and small rows become cheaper to scan exactly.
    """
    return base.max_bias / base.explore_bias


def resolve_strategy_codes(
    base: Sampler, strategy: np.ndarray, has_edge_types: bool = False
) -> np.ndarray:
    """Collapse a stored two-column strategy map onto one base sampler.

    Used identically by :meth:`HybridKernel.prepare` and the dynamic
    subsystem's ``SamplerState.kernel_arrays`` so a snapshot hand-off and
    a fresh prepare agree on every row.
    """
    if strategy.ndim != 2 or strategy.shape[1] != 2:
        raise SamplingError(
            f"strategy map must have shape (num_vertices, 2), got {strategy.shape}"
        )
    if isinstance(base, UniformSampler):
        # Uniform draws ignore weights, so only the degenerate-row
        # shortcut applies (the ONE code marks degree <= 1 rows in both
        # columns; the second is weight-independent).
        return np.where(
            strategy[:, 1] == STRATEGY_ONE, STRATEGY_ONE, STRATEGY_UNIFORM
        ).astype(_CODE_DTYPE)
    if isinstance(base, (AliasSampler, InverseTransformSampler)):
        return np.ascontiguousarray(strategy[:, 0])
    if isinstance(base, RejectionSampler):
        second = strategy[:, 1]
        if rejection_expected_rounds(base) < _SCAN_MIN_EXPECTED_ROUNDS:
            # Rejection accepts nearly every proposal at these p/q: one
            # draw and at most one probe per hop beats any O(d) scan, so
            # small rows stay on the rejection path too.
            second = np.where(second == STRATEGY_ITS, STRATEGY_HEAVY, second)
        return np.where(
            second == STRATEGY_HEAVY, STRATEGY_REJECTION, second
        ).astype(_CODE_DTYPE)
    if isinstance(base, ReservoirSampler):
        if has_edge_types:
            # Edge-type admissibility can terminate a walk mid-row; no
            # shortcut strategy models that, so every row stays on the
            # reservoir scan.
            return np.full(strategy.shape[0], STRATEGY_RESERVOIR, dtype=_CODE_DTYPE)
        second = strategy[:, 1]
        return np.where(
            second == STRATEGY_HEAVY, STRATEGY_RESERVOIR, second
        ).astype(_CODE_DTYPE)
    raise SamplingError(
        f"no hybrid strategy family for sampler {base.name!r}; "
        "use sampler='default'"
    )


def build_first_order_state(
    graph: CSRGraph, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alias slots and ITS CDF rows covering exactly what ``codes`` need.

    Returns full-length ``(alias_slots, its_cdf, its_row_totals)`` arrays
    aligned with the CSR column list — rows not selecting a structure
    keep the uniform defaults, selected rows are built with the *same row
    builders* a full build uses, so a row's slots are bit-identical to
    ``graph_alias_slots`` / ``build_its_cdf`` output whenever both built
    it.
    """
    within = within_row_index(graph.row_ptr)
    prob = np.ones(graph.num_edges, dtype=np.float64)
    alias = within.copy()
    its_cdf = (within + 1).astype(np.float64)
    its_row_totals = graph.degrees().astype(np.float64)
    if graph.is_weighted:
        positions, batch_ptr = gather_rows(
            graph.row_ptr, np.flatnonzero(codes == STRATEGY_ALIAS)
        )
        prob[positions], alias[positions] = build_alias_rows(
            graph.weights[positions], batch_ptr
        )
        its_rows = np.flatnonzero(codes == STRATEGY_ITS)
        positions, batch_ptr = gather_rows(graph.row_ptr, its_rows)
        its_weights = graph.weights[positions]
        its_cdf[positions] = row_cumsums(its_weights, batch_ptr)
        its_row_totals[its_rows] = row_sums(its_weights, batch_ptr)
    return pack_alias_slots(prob, alias, graph.row_ptr, graph.col), its_cdf, its_row_totals


class BiasedScanKernel(VectorizedKernel):
    """Exact inverse-transform over bias-adjusted weights, for small rows.

    The scan strategy for second-order walks: each walker's whole
    neighbor row is gathered into a padded ``(walkers, max_degree)``
    rectangle, Node2Vec biases (return ``1/p``, in-neighborhood ``1``,
    explore ``1/q``) multiply the edge weights, and one uniform per
    walker is located in the row-local running total.  The cumulative
    sums are computed per padded row, so a walker's draw is bit-independent
    of frontier composition — the property the hybrid determinism
    contract rests on.  Intended for rows the cost model capped at
    ``small_degree``; the rectangle is exact for any degree, just not
    economical on hubs.
    """

    def __init__(self, p: float | None = None, q: float | None = None,
                 use_weights: bool = True) -> None:
        if (p is None) != (q is None):
            raise SamplingError("p and q must be given together or not at all")
        if p is not None and (p <= 0 or q <= 0):
            raise SamplingError(
                f"node2vec parameters must be positive, got p={p}, q={q}"
            )
        self._p = p
        self._q = q
        #: Whether edge weights multiply the bias.  False when standing in
        #: for rejection sampling, whose law is structural-bias only —
        #: the scan must realize the *same* distribution as the strategy
        #: it replaces, even on graphs that happen to carry weights.
        self._use_weights = use_weights
        self._edge_set: EdgeSet | None = None

    @property
    def second_order(self) -> bool:
        return self._p is not None

    def prepare(self, graph: CSRGraph) -> None:
        if self.second_order:
            self._edge_set = EdgeSet.build(graph)

    def state_arrays(self) -> dict[str, np.ndarray]:
        if not self.second_order:
            return {}
        if self._edge_set is None:
            raise SamplingError(
                "BiasedScanKernel.prepare(graph) must run before exporting state"
            )
        return self._edge_set.state_arrays()

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        if self.second_order:
            self._edge_set = EdgeSet.from_state(arrays)

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        if admissible_type is not None:
            raise SamplingError(
                "BiasedScanKernel does not support edge-type admissibility; "
                "typed walks stay on the reservoir strategy"
            )
        degrees = graph.degrees()[current].astype(np.int64)
        width = int(degrees.max())
        slots = np.arange(width, dtype=np.int64)
        valid = slots[None, :] < degrees[:, None]
        position = graph.row_ptr[current][:, None] + np.where(valid, slots[None, :], 0)
        if self._use_weights and graph.is_weighted:
            weight = graph.weights[position].astype(np.float64)
        else:
            weight = np.ones(position.shape, dtype=np.float64)
        if self.second_order:
            if self._edge_set is None:
                raise SamplingError(
                    "BiasedScanKernel.prepare(graph) must be called before sampling"
                )
            # Probe only the entries whose bias can matter: real slots of
            # walkers that actually have a previous vertex (first hops are
            # bias-free, padded slots are zeroed below anyway).
            prev = np.broadcast_to(previous[:, None], position.shape)
            biased = valid & (prev >= 0)
            if biased.any():
                candidate = graph.col[position[biased]]
                prev_flat = prev[biased]
                adjacent = self._edge_set.contains(prev_flat, candidate)
                bias = np.ones(position.shape, dtype=np.float64)
                bias[biased] = np.where(
                    candidate == prev_flat,
                    1.0 / self._p,
                    np.where(adjacent, 1.0, 1.0 / self._q),
                )
                weight = weight * bias
        weight = np.where(valid, weight, 0.0)
        prefix = np.cumsum(weight, axis=1)
        totals = prefix[:, -1]
        target = streams.uniforms(stream_idx) * totals
        choice = (prefix <= target[:, None]).sum(axis=1)
        choice = np.minimum(choice.astype(np.int64), degrees - 1)
        # Full-scan accounting, like the reservoir sampler: every entry
        # of the row is read once to compute its (biased) weight.
        return BatchSample(
            neighbor_at(graph, current, choice),
            proposals=current.size,
            neighbor_reads=int(degrees.sum()),
        )


class SingleNeighborKernel(VectorizedKernel):
    """Degenerate rows (degree 1): take the only neighbor, draw nothing.

    Any walk law puts probability 1 on a single positive-weight,
    positive-bias option, so no substream is consumed — the one strategy
    whose draw pattern is empty.  (Never selected for edge-typed graphs,
    where the single edge could be inadmissible.)
    """

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        # Same accounting as a uniform draw: one proposal, one read.
        return BatchSample(graph.col[graph.row_ptr[current]],
                           proposals=current.size, neighbor_reads=current.size)


def _sub_kernels(base: Sampler) -> dict[int, VectorizedKernel]:
    """The strategy-code -> kernel family one base sampler can dispatch to."""
    if isinstance(base, UniformSampler):
        return {
            STRATEGY_UNIFORM: UniformKernel(),
            STRATEGY_ONE: SingleNeighborKernel(),
        }
    if isinstance(base, (AliasSampler, InverseTransformSampler)):
        return {
            STRATEGY_UNIFORM: UniformKernel(),
            STRATEGY_ONE: SingleNeighborKernel(),
            STRATEGY_ALIAS: AliasKernel(),
            STRATEGY_ITS: ITSKernel(),
        }
    if isinstance(base, RejectionSampler):
        return {
            STRATEGY_UNIFORM: UniformKernel(),
            STRATEGY_ONE: SingleNeighborKernel(),
            # Rejection's law is structural bias only (uniform proposals,
            # weights ignored): the scan stand-in must match it even on
            # weighted graphs.
            STRATEGY_ITS: BiasedScanKernel(p=base.p, q=base.q, use_weights=False),
            STRATEGY_REJECTION: RejectionKernel(base),
        }
    if isinstance(base, ReservoirSampler):
        return {
            STRATEGY_UNIFORM: UniformKernel(),
            STRATEGY_ONE: SingleNeighborKernel(),
            STRATEGY_ITS: BiasedScanKernel(p=base.p, q=base.q),
            STRATEGY_RESERVOIR: ReservoirKernel(base),
        }
    raise SamplingError(
        f"no hybrid strategy family for sampler {base.name!r}; "
        "use sampler='default'"
    )


class HybridKernel(VectorizedKernel):
    """Frontier-wide dispatch over a per-row strategy selection map.

    ``selection``, when given, forces a final per-vertex code map
    (callers own its distributional correctness — the conformance tests
    force maps to prove bit-identity against single-strategy kernels);
    otherwise :meth:`prepare` runs the cost model.  Groups dispatch in
    ascending code order, but since every sub-kernel's per-walker draws
    depend only on that walker's substream, grouping cannot change any
    walker's path.  A group's stalled walkers (the rejection strategy's)
    are reported at their frontier positions; a stalled walker stays on
    its row, so its row's strategy asks it again.
    """

    def __init__(
        self,
        base: Sampler,
        selection: np.ndarray | None = None,
        config: HybridConfig | None = None,
    ) -> None:
        self._base = base
        self._config = config or DEFAULT_CONFIG
        self._kernels = _sub_kernels(base)
        if selection is not None:
            selection = np.ascontiguousarray(selection, dtype=_CODE_DTYPE)
            unknown = set(np.unique(selection).tolist()) - set(self._kernels)
            if unknown:
                names = ", ".join(
                    STRATEGY_NAMES.get(code, str(code)) for code in sorted(unknown)
                )
                raise SamplingError(
                    f"selection map assigns strategies ({names}) the base "
                    f"sampler {base.name!r} cannot dispatch to"
                )
        self._forced = selection
        self._codes: np.ndarray | None = None
        #: Codes actually present in the selection map, set with the map;
        #: the dispatch loop iterates these instead of re-discovering the
        #: frontier's codes with a sort every superstep.
        self._present: tuple[int, ...] = ()

    @property
    def base(self) -> Sampler:
        return self._base

    @property
    def selection(self) -> np.ndarray | None:
        """The per-vertex strategy codes (after prepare/load_state)."""
        return self._codes

    @property
    def second_order(self) -> bool:
        """Whether the strategy family probes adjacency (holds an
        :class:`~repro.sampling.vectorized.EdgeSet`)."""
        return isinstance(self._base, RejectionSampler) or (
            isinstance(self._base, ReservoirSampler) and self._base.second_order
        )

    def sub_state_names(self) -> tuple[str, ...]:
        """Names of the per-edge prepared arrays this kernel's strategy
        family consumes — what a :class:`~repro.dynamic.state.SamplerState`
        hand-off must supply alongside ``hybrid_strategy`` (and, for a
        second-order family, the edge set)."""
        if isinstance(self._base, (AliasSampler, InverseTransformSampler)):
            return ("alias_slots", "its_cdf", "its_row_totals")
        return ()

    def strategy_counts(self) -> dict[str, int]:
        """Rows per strategy — the cost model's decision, summarized."""
        if self._codes is None:
            raise SamplingError("HybridKernel.prepare(graph) must run first")
        codes, counts = np.unique(self._codes, return_counts=True)
        return {
            STRATEGY_NAMES[int(code)]: int(count)
            for code, count in zip(codes, counts)
        }

    def _adopt_codes(self, codes: np.ndarray) -> None:
        self._codes = codes
        self._present = tuple(int(code) for code in np.unique(codes))

    def prepare(self, graph: CSRGraph) -> None:
        if self._forced is not None:
            if self._forced.size != graph.num_vertices:
                raise SamplingError(
                    f"selection map has {self._forced.size} entries for a "
                    f"graph with {graph.num_vertices} vertices"
                )
            self._adopt_codes(self._forced)
        else:
            self._adopt_codes(resolve_strategy_codes(
                self._base,
                select_strategies(graph, self._config),
                has_edge_types=graph.edge_types is not None,
            ))
        if isinstance(self._base, (AliasSampler, InverseTransformSampler)):
            slots, cdf, totals = build_first_order_state(graph, self._codes)
            self._kernels[STRATEGY_ALIAS].load_state({"alias_slots": slots})
            self._kernels[STRATEGY_ITS].load_state(
                {"its_cdf": cdf, "its_row_totals": totals}
            )
        elif self.second_order:
            # Built once; the family's probing kernels share its arrays.
            state = EdgeSet.build(graph).state_arrays()
            for code, kernel in self._kernels.items():
                if code not in (STRATEGY_UNIFORM, STRATEGY_ONE):
                    kernel.load_state(state)

    def state_arrays(self) -> dict[str, np.ndarray]:
        if self._codes is None:
            raise SamplingError(
                "HybridKernel.prepare(graph) must run before exporting state"
            )
        arrays: dict[str, np.ndarray] = {"hybrid_strategy": self._codes}
        for kernel in self._kernels.values():
            arrays.update(kernel.state_arrays())
        return arrays

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        self._adopt_codes(arrays["hybrid_strategy"])
        for kernel in self._kernels.values():
            kernel.load_state(arrays)

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        if self._codes is None:
            raise SamplingError(
                "HybridKernel.prepare(graph) must be called before sampling"
            )
        if len(self._present) == 1:
            # Single-strategy selection map (every fixed-map conformance
            # run): zero dispatch overhead.
            return self._kernels[self._present[0]].sample(
                graph, current, previous, admissible_type, streams, stream_idx
            )
        codes = self._codes[current]
        vertex = np.empty(current.size, dtype=np.int64)
        proposals = 0
        reads = 0
        stalls = []
        for code in self._present:
            mask = codes == code
            count = int(np.count_nonzero(mask))
            if count == 0:
                continue
            if code == STRATEGY_ONE:
                # Degenerate rows resolve inline: the only neighbor, no
                # draws, no kernel call.
                vertex[mask] = graph.col[graph.row_ptr[current[mask]]]
                proposals += count
                reads += count
                continue
            if count == current.size:
                # Whole frontier on one strategy (common once short walks
                # have drained the light rows): skip the gather/scatter.
                return self._kernels[code].sample(
                    graph, current, previous, admissible_type, streams, stream_idx
                )
            group = np.nonzero(mask)[0]
            batch = self._kernels[code].sample(
                graph,
                current[group],
                previous[group],
                admissible_type,
                streams,
                sub_streams(stream_idx, group),
            )
            vertex[group] = batch.vertex
            proposals += batch.proposals
            reads += batch.neighbor_reads
            if batch.stalled.size:
                stalls.append(group[batch.stalled])
        stalled = np.sort(np.concatenate(stalls)) if stalls else NO_STALLS
        return BatchSample(vertex, proposals=proposals, neighbor_reads=reads, stalled=stalled)

    def stalled_out(self, stalls: int) -> SamplingError:
        rejection = self._kernels.get(STRATEGY_REJECTION)
        return super().stalled_out(stalls) if rejection is None else rejection.stalled_out(stalls)


class HybridSampler(Sampler):
    """Scalar per-row dispatch for the reference engine's ``auto`` mode.

    Same cost model, same strategy families as :class:`HybridKernel`;
    each hop consults the selection map for the current row and runs the
    corresponding scalar sampler.  Distributionally identical to the
    base sampler (each strategy realizes the exact per-hop law), so the
    reference engine remains the statistical oracle in auto mode too.
    """

    name = "hybrid"

    def __init__(
        self,
        base: Sampler,
        selection: np.ndarray | None = None,
        config: HybridConfig | None = None,
    ) -> None:
        self._base = base
        self._config = config or DEFAULT_CONFIG
        self._forced = (
            np.ascontiguousarray(selection, dtype=_CODE_DTYPE)
            if selection is not None
            else None
        )
        self._codes: np.ndarray | None = None
        self._its: InverseTransformSampler | None = None
        self.rp_entry_bits = base.rp_entry_bits
        # Validate the family eagerly, like the vectorized constructor.
        _sub_kernels(base)

    @property
    def base(self) -> Sampler:
        return self._base

    @property
    def selection(self) -> np.ndarray | None:
        return self._codes

    def prepare(self, graph: CSRGraph) -> None:
        if self._forced is not None:
            self._codes = self._forced
        else:
            self._codes = resolve_strategy_codes(
                self._base,
                select_strategies(graph, self._config),
                has_edge_types=graph.edge_types is not None,
            )
        self._base.prepare(graph)
        if STRATEGY_ITS in set(np.unique(self._codes).tolist()) and isinstance(
            self._base, (AliasSampler, InverseTransformSampler)
        ):
            self._its = InverseTransformSampler()
            self._its.prepare(graph)

    def _scan_exact(
        self, graph: CSRGraph, context: StepContext, random_source: RandomSource
    ) -> SampleOutcome:
        """Scalar twin of :class:`BiasedScanKernel` (small second-order rows)."""
        degree = self._require_degree(graph, context.vertex)
        neighbors = graph.neighbors(context.vertex)
        if isinstance(self._base, RejectionSampler):
            # Rejection ignores edge weights; so must its scan stand-in.
            weights = np.ones(degree, dtype=np.float64)
        else:
            weights = graph.neighbor_weights(context.vertex).astype(np.float64).copy()
        prev = context.prev_vertex
        p = getattr(self._base, "p", None)
        q = getattr(self._base, "q", None)
        if prev is not None and p is not None:
            for i in range(degree):
                candidate = int(neighbors[i])
                if candidate == prev:
                    weights[i] *= 1.0 / p
                elif not graph.has_edge(prev, candidate):
                    weights[i] *= 1.0 / q
        cumulative = np.cumsum(weights)
        target = random_source.uniform() * float(cumulative[-1])
        index = min(int(np.searchsorted(cumulative, target, side="right")), degree - 1)
        return SampleOutcome(index=index, proposals=1, neighbor_reads=degree)

    def sample(
        self,
        graph: CSRGraph,
        context: StepContext,
        random_source: RandomSource,
    ) -> SampleOutcome:
        if self._codes is None:
            raise SamplingError(
                "HybridSampler.prepare(graph) must be called before sampling"
            )
        code = int(self._codes[context.vertex])
        if code == STRATEGY_ONE:
            self._require_degree(graph, context.vertex)
            return SampleOutcome(index=0, proposals=1, neighbor_reads=1)
        if code == STRATEGY_UNIFORM:
            degree = self._require_degree(graph, context.vertex)
            return SampleOutcome(
                index=random_source.randint(degree), proposals=1, neighbor_reads=1
            )
        if code == STRATEGY_ITS:
            if self._its is not None:
                return self._its.sample(graph, context, random_source)
            return self._scan_exact(graph, context, random_source)
        return self._base.sample(graph, context, random_source)


def make_walk_kernel(
    sampler: Sampler,
    mode: str = "default",
    selection: np.ndarray | None = None,
    config: HybridConfig | None = None,
) -> VectorizedKernel:
    """Kernel factory behind every engine's ``sampler=`` option.

    ``"default"`` maps the spec's sampler onto its single-strategy kernel
    (:func:`~repro.sampling.vectorized.make_kernel`); ``"auto"`` wraps it
    in a :class:`HybridKernel` driven by the cost model.
    """
    validate_sampler_mode(mode)
    if mode == "default":
        return make_kernel(sampler)
    return HybridKernel(sampler, selection=selection, config=config)


def make_walk_sampler(
    sampler: Sampler,
    mode: str = "default",
    selection: np.ndarray | None = None,
    config: HybridConfig | None = None,
) -> Sampler:
    """Scalar-sampler factory mirroring :func:`make_walk_kernel` for the
    reference engine."""
    validate_sampler_mode(mode)
    if mode == "default":
        return sampler
    return HybridSampler(sampler, selection=selection, config=config)
