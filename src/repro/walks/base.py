"""Walk specifications, queries and results.

A :class:`WalkSpec` bundles everything that distinguishes one GRW
algorithm from another — which sampler it uses, how walks terminate, and
what per-step state a task must carry (Table I).  The same spec object
drives the pure-software reference engine, every baseline model, and the
cycle-level RidgeWalker simulator, which is what makes cross-checking
their statistics meaningful.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import pairwise
from typing import Sequence

import numpy as np

from repro.errors import WalkConfigError
from repro.graph.csr import CSRGraph
from repro.sampling.base import RandomSource, Sampler

#: The paper's query length for all throughput experiments (Section VIII-A4).
DEFAULT_MAX_LENGTH = 80


@dataclass(frozen=True)
class Query:
    """One random-walk query: a start vertex plus a tracking id."""

    query_id: int
    start_vertex: int

    def __post_init__(self) -> None:
        if self.query_id < 0:
            raise WalkConfigError(f"query_id must be non-negative, got {self.query_id}")
        if self.start_vertex < 0:
            raise WalkConfigError(
                f"start_vertex must be non-negative, got {self.start_vertex}"
            )


class WalkSpec(ABC):
    """Algorithm-specific behaviour of a GRW.

    Subclasses define the sampler, the termination rule, and how much
    walker state a decomposed task needs (``v_last`` only for first-order
    walks; ``(v_last, v_prev)`` for second-order walks like Node2Vec —
    the paper's task tuple notes exactly this distinction).
    """

    #: Display name used in benchmark tables.
    name: str = "walk"

    #: Whether tasks must carry the previous vertex (second-order walks).
    needs_prev_vertex: bool = False

    #: Whether :meth:`admissible_type` and :meth:`termination_probability`
    #: ignore their ``step`` argument.  The array kernels take one scalar
    #: per superstep, so only a step-invariant spec can have walkers at
    #: different hop counts share a superstep (the batch engine's open
    #: frontier; a walker whose proposal was rejected, which retries a
    #: superstep later).  False unless a spec declares it: one that
    #: forgets is served through closed runs, slower but never wrong,
    #: and may not use a sampler that stalls.
    step_invariant: bool = False

    def __init__(self, max_length: int = DEFAULT_MAX_LENGTH) -> None:
        self.max_length = max_length

    @property
    def max_length(self) -> int:
        """Maximum number of hops per query.

        A validating property rather than a bare attribute: several
        entry points (CLI, benchmarks) re-assign it after construction
        to apply a ``--length`` flag, and a zero or negative length must
        fail as a config error there too, not as a numpy shape error
        deep inside an engine.
        """
        return self._max_length

    @max_length.setter
    def max_length(self, value: int) -> None:
        if value < 1:
            raise WalkConfigError(f"max_length must be >= 1, got {value}")
        self._max_length = int(value)

    @abstractmethod
    def make_sampler(self) -> Sampler:
        """Create a fresh sampler configured for this algorithm."""

    def admissible_type(self, step: int) -> int | None:
        """Edge-type constraint for hop ``step`` (MetaPath); ``None`` = any."""
        return None

    def termination_probability(self, step: int) -> float:
        """Probability the walk ends after hop ``step`` by algorithmic
        choice (PPR's teleport).  0.0 — never — by default.

        Declaring the probability (rather than only the draw) lets the
        batch engine apply termination to a whole frontier with one
        vectorized draw.
        """
        return 0.0

    def terminates_probabilistically(
        self, step: int, random_source: RandomSource
    ) -> bool:
        """Whether the walk ends after ``step`` by algorithmic choice;
        draws one uniform only when :meth:`termination_probability` is
        non-zero, preserving RNG stream alignment for non-terminating
        specs."""
        probability = self.termination_probability(step)
        return probability > 0.0 and random_source.uniform() < probability

    @property
    def rp_entry_bits(self) -> int:
        """Row-pointer entry width the accelerator configures (Table I)."""
        return self.make_sampler().rp_entry_bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_length={self.max_length})"


class WalkResults:
    """Paths produced by a batch of queries, plus aggregate counters.

    ``paths[i]`` is the vertex sequence of query ``i`` **including** the
    start vertex.  ``total_steps`` counts traversed hops (visited vertices
    beyond the start), the quantity the paper's MStep/s metric divides by
    time.

    Array-built results (every vectorized engine) hold one unpadded int64
    buffer: query ``i``'s path is ``flat[offsets[i]:offsets[i + 1]]``, and
    ``paths`` is a list of views into it, built on first access.  Results
    built path by path (:meth:`add_path`) hold the list alone.  Vertex ids
    are int64 *values* whatever width prepared kernel state stores them
    at (the packed alias slots hold int32): path digests — the suite's
    ``paths_sha256``, the golden files — are taken over these values.
    """

    def __init__(self) -> None:
        self.total_steps = 0
        # Exactly one is authoritative: the flat buffer when present
        # (``_paths`` is then its cached view list, or None), else the list.
        self._paths: list[np.ndarray] | None = []
        self._flat: np.ndarray | None = None
        self._offsets: np.ndarray | None = None

    @classmethod
    def from_flat(cls, flat: np.ndarray, offsets: np.ndarray) -> "WalkResults":
        """Adopt a compact path buffer and its ``num_queries + 1`` offsets."""
        results = cls()
        results._flat, results._offsets, results._paths = flat, offsets, None
        results.total_steps = int(flat.size - (offsets.size - 1))
        return results

    @property
    def paths(self) -> list[np.ndarray]:
        if self._paths is None:
            self._paths = split_path_buffer(self._flat, self._offsets)
        return self._paths

    def _buffer(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat, offsets)`` of every path; list-built results
        concatenate on demand."""
        if self._flat is not None:
            return self._flat, self._offsets
        lengths = np.fromiter((p.size for p in self._paths), dtype=np.int64,
                              count=len(self._paths))
        flat = np.concatenate(self._paths) if self._paths else np.empty(0, dtype=np.int64)
        return flat, path_offsets(lengths)

    def _own_list(self) -> list[np.ndarray]:
        """Make the path list authoritative before it is appended to."""
        paths = self.paths
        self._flat = self._offsets = None
        return paths

    def add_path(self, path: Sequence[int]) -> None:
        """Record one finished query path."""
        array = np.asarray(path, dtype=np.int64)
        self._own_list().append(array)
        self.total_steps += max(0, array.size - 1)

    def extend_from_matrix(self, paths: np.ndarray, hops: np.ndarray) -> None:
        """Bulk-append one path per matrix row (``paths[i, :hops[i] + 1]``),
        gathered into one compact buffer: an empty result adopts it as its
        flat representation, a non-empty one appends views of it."""
        flat, lengths = compact_path_matrix(paths, hops)
        if lengths.size == 0:
            return
        offsets = path_offsets(lengths)
        if self.num_queries == 0:
            self._flat, self._offsets, self._paths = flat, offsets, None
        else:
            self._own_list().extend(split_path_buffer(flat, offsets))
        self.total_steps += int(flat.size - lengths.size)

    @property
    def num_queries(self) -> int:
        """Number of completed queries."""
        if self._flat is not None:
            return self._offsets.size - 1
        return len(self._paths)

    def lengths(self) -> np.ndarray:
        """Hop count of every query (excludes the start vertex)."""
        return np.maximum(np.diff(self._buffer()[1]) - 1, 0)

    def visit_counts(self, num_vertices: int, include_start: bool = True) -> np.ndarray:
        """Histogram of vertex visits across all paths.

        The statistical oracle for comparing engines: two correct engines
        running the same spec must produce visit histograms that agree up
        to sampling noise.
        """
        flat, offsets = self._buffer()
        counts = np.bincount(flat, minlength=num_vertices)
        if not include_start:
            first = offsets[:-1][np.diff(offsets) > 0]
            counts -= np.bincount(flat[first], minlength=num_vertices)
        return counts

    def transition_counts(self, num_vertices: int) -> np.ndarray:
        """Dense matrix of observed ``src -> dst`` hop counts (small graphs
        only; used by distribution tests)."""
        counts = np.zeros((num_vertices, num_vertices), dtype=np.int64)
        for path in self.paths:
            for a, b in zip(path[:-1], path[1:]):
                counts[int(a), int(b)] += 1
        return counts

    def path_of(self, query_id: int) -> np.ndarray:
        """Path of the query recorded at position ``query_id``."""
        return self.paths[query_id]

    def owned_path(self, position: int) -> np.ndarray:
        """Path at ``position`` as an array that owns its memory.

        Engine paths are views into one buffer covering the whole batch; a
        longer-lived holder (a served reply, a cache pool) given a view
        would pin every other query's path with it.
        """
        if self._flat is not None:
            return self._flat[self._offsets[position]:self._offsets[position + 1]].copy()
        path = self._paths[position]
        return path.copy() if path.base is not None else path

    def subset(self, positions: Sequence[int]) -> "WalkResults":
        """New :class:`WalkResults` holding the selected positions' paths.

        The serving layer runs a micro-batch as one engine call and
        resolves each request with its own slice: paths are *copied*
        (:meth:`owned_path`) and ``total_steps`` recomputed, so a reply
        neither pins the micro-batch nor misstates its hops.
        """
        result = WalkResults()
        for position in positions:
            result.add_path(self.owned_path(position))
        return result


def unpack_queries(queries: Sequence[Query]) -> tuple[np.ndarray, np.ndarray]:
    """``(query_ids, start_vertices)`` of a batch as aligned int64 arrays."""
    count = len(queries)
    query_ids = np.fromiter((q.query_id for q in queries), dtype=np.int64, count=count)
    starts = np.fromiter((q.start_vertex for q in queries), dtype=np.int64, count=count)
    return query_ids, starts


def compact_path_matrix(paths: np.ndarray, hops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather each row's valid prefix into one contiguous buffer.

    Returns ``(flat, lengths)`` where ``flat`` is the concatenation of
    ``paths[i, :hops[i] + 1]`` for every row, in row order — the dense
    matrix's route into the compact representation
    (:meth:`WalkResults.extend_from_matrix`, the jit worker backend).
    """
    paths = np.asarray(paths)
    hops = np.asarray(hops, dtype=np.int64)
    if paths.ndim != 2 or hops.ndim != 1 or paths.shape[0] != hops.size:
        raise WalkConfigError(
            f"paths {paths.shape} and hops {hops.shape} must be a matrix "
            "and an aligned vector"
        )
    if hops.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if hops.min() < 0 or hops.max() >= paths.shape[1]:
        raise WalkConfigError(
            f"hops must lie in [0, {paths.shape[1] - 1}] for a "
            f"{paths.shape[1]}-wide path matrix"
        )
    lengths = hops + 1
    keep = np.arange(paths.shape[1]) < lengths[:, None]
    return np.ascontiguousarray(paths[keep], dtype=np.int64), lengths


def path_offsets(lengths: np.ndarray) -> np.ndarray:
    """``offsets`` (one more entry than ``lengths``) of back-to-back paths."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def split_path_buffer(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """One view per query of a compact path buffer (row order)."""
    return [flat[a:b] for a, b in pairwise(offsets.tolist())]


def start_path_buffer(starts: np.ndarray, hops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(flat, offsets)`` sized for the given hop counts, with every
    query's start vertex in place and the hops still to be written."""
    offsets = path_offsets(hops + 1)
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    flat[offsets[:-1]] = starts
    return flat, offsets


def paths_from_step_log(
    starts: np.ndarray,
    hops: np.ndarray,
    step_log: Sequence[np.ndarray | tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble ``(flat, offsets)`` from one run's superstep-major log.

    ``step_log[s]`` holds the vertex reached in superstep ``s`` by every
    row still walking, in row order — what a compact frontier emits.
    Without stalls that is hop ``s`` of every row with ``hops > s``.  A
    superstep in which rows stalled logs ``(vertices, stalled)``,
    ``stalled`` indexing the rows of ``vertices`` that did not move and
    hold the vertex they stay on: they are skipped, and take that hop in
    a later superstep (a stall is always followed by a hop).  The hop
    counts fix the layout, so each superstep lands in its final slots
    with one scatter; the destinations compact as the frontier did, so
    no row index is logged and no path matrix built.
    """
    flat, offsets = start_path_buffer(starts, hops)
    # Row k has a hop still to write while ``left[k] > step``: its hop
    # count plus the supersteps it has stalled in so far.
    dest, left = offsets[:-1] + 1, hops.copy()
    for step, entry in enumerate(step_log):
        alive = left > step
        if not alive.all():
            dest, left = dest[alive], left[alive]
        if isinstance(entry, tuple):
            # A stalled row writes the vertex it stays on over its last
            # slot again, and its hop goes to the next one later.
            entry, stalled = entry
            left[stalled] += 1
            dest[stalled] -= 1
        flat[dest] = entry
        dest += 1
    return flat, offsets


def make_queries(
    graph: CSRGraph,
    count: int,
    seed: int = 0,
    start_vertices: Sequence[int] | None = None,
    require_outgoing: bool = True,
) -> list[Query]:
    """Build a query batch with random (or given) start vertices.

    ``require_outgoing`` skips dangling start vertices, matching the
    paper's setup where every query performs at least one hop attempt.
    """
    if count < 1:
        raise WalkConfigError(f"count must be >= 1, got {count}")
    if start_vertices is not None:
        if len(start_vertices) != count:
            raise WalkConfigError(
                f"start_vertices has {len(start_vertices)} entries, expected {count}"
            )
        return [Query(i, int(v)) for i, v in enumerate(start_vertices)]
    rng = np.random.default_rng(seed)
    if require_outgoing:
        candidates = np.nonzero(graph.degrees() > 0)[0]
        if candidates.size == 0:
            raise WalkConfigError("graph has no vertex with outgoing edges")
    else:
        candidates = np.arange(graph.num_vertices)
    starts = rng.choice(candidates, size=count, replace=True)
    return [Query(i, int(v)) for i, v in enumerate(starts)]
