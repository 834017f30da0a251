"""Walk specifications, queries and results.

A :class:`WalkSpec` bundles everything that distinguishes one GRW
algorithm from another — which sampler it uses, how walks terminate, and
what per-step state a task must carry (Table I).  The same spec object
drives the pure-software reference engine, every baseline model, and the
cycle-level RidgeWalker simulator, which is what makes cross-checking
their statistics meaningful.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from repro.errors import SamplingError, WalkConfigError
from repro.graph.csr import CSRGraph
from repro.sampling.base import RandomSource, Sampler

#: The paper's query length for all throughput experiments (Section VIII-A4).
DEFAULT_MAX_LENGTH = 80

#: The largest query id or start vertex: the engines hold both as int64.
_INDEX_MAX = int(np.iinfo(np.int64).max)


def walk_index(value, name: str) -> int:
    """``value`` as a non-negative Python ``int`` that fits in int64 — a
    query id or a start vertex — or :class:`WalkConfigError` naming it.

    Anything with ``__index__`` passes (numpy integers included); a
    ``bool``, a float or a string does not, so ``1.5`` or ``True`` can
    never quietly walk from vertex 1.
    """
    if type(value) is int and 0 <= value <= _INDEX_MAX:  # the common case, checked first
        return value
    if isinstance(value, bool):
        raise WalkConfigError(f"{name} must be an integer, got {value!r}")
    try:
        index = operator.index(value)
    except TypeError:
        raise WalkConfigError(f"{name} must be an integer, got {value!r}") from None
    if index < 0:
        raise WalkConfigError(f"{name} must be non-negative, got {index}")
    if index > _INDEX_MAX:
        raise WalkConfigError(f"{name} must fit in int64, got {index}")
    return index


def _index_array(values, name: str) -> np.ndarray:
    """``values`` as a read-only int64 array the caller cannot reach,
    every entry a non-negative integer by :func:`walk_index`'s rule, or
    :class:`WalkConfigError` naming ``name``.

    An integer array is checked whole.  Anything else is checked value
    by value, so a bool, a float or a string is refused wherever it sits
    (numpy alone would read ``[True, 2]`` as ``[1, 2]``).
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        if values.dtype == np.uint64 and values.size and values.max() > _INDEX_MAX:
            raise WalkConfigError(f"{name} must fit in int64, got {values.max()}")
        array = values.astype(np.int64)  # a copy, always
    else:
        array = np.fromiter((walk_index(v, name) for v in values), dtype=np.int64)
    if array.ndim != 1:
        raise WalkConfigError(f"{name} values must form one dimension, got shape {array.shape}")
    if array.size and array.min() < 0:
        raise WalkConfigError(f"{name} must be non-negative, got {int(array[array < 0][0])}")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, slots=True)
class Query:
    """One random-walk query: a start vertex plus a tracking id."""

    query_id: int
    start_vertex: int

    def __post_init__(self) -> None:
        walk_index(self.query_id, "query_id")
        walk_index(self.start_vertex, "start_vertex")


class WalkBatch(Sequence):
    """A batch of queries as two aligned read-only int64 arrays.

    ``ids[k]`` and ``starts[k]`` are query ``k``'s id and start vertex —
    the two words the Query Loader feeds the pipeline per query.  Every
    value is checked once, when the batch is built; the engines read the
    arrays as they are (:func:`unpack_queries`).  To everyone else it is
    a ``Sequence[Query]``: indexing or iterating makes a :class:`Query`
    of Python ints per query read, and a slice is another ``WalkBatch``
    over views of the same arrays.
    """

    __slots__ = ("_ids", "_starts")

    def __init__(self, ids, starts) -> None:
        ids, starts = _index_array(ids, "query_id"), _index_array(starts, "start_vertex")
        if ids.size != starts.size:
            raise WalkConfigError(f"{ids.size} query ids for {starts.size} start vertices")
        self._ids, self._starts = ids, starts

    @classmethod
    def of(cls, queries: Sequence[Query]) -> "WalkBatch":
        """``queries`` as a batch: a ``WalkBatch`` as it is, any other
        sequence of :class:`Query` read once."""
        if isinstance(queries, WalkBatch):
            return queries
        count = len(queries)
        return cls(np.fromiter((q.query_id for q in queries), dtype=np.int64, count=count),
                   np.fromiter((q.start_vertex for q in queries), dtype=np.int64, count=count))

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def starts(self) -> np.ndarray:
        return self._starts

    def __len__(self) -> int:
        return self._ids.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            part = WalkBatch.__new__(WalkBatch)
            part._ids, part._starts = self._ids[index], self._starts[index]
            return part
        return Query(self._ids.item(index), self._starts.item(index))

    def __iter__(self):
        return map(Query, self._ids.tolist(), self._starts.tolist())

    def __repr__(self) -> str:
        return f"WalkBatch({len(self)} queries)"


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

    def admissible_type(self, hops: int | np.ndarray) -> int | np.ndarray | None:
        """Edge-type constraint (MetaPath) on the hop a walker that has
        taken ``hops`` hops takes next; ``None`` = any edge.

        ``hops`` is the walker's own hop count — an int, or an int64
        array with one count per walker (the batch engines ask a whole
        frontier at once, walkers of every age together), answered in
        kind: one type per walker — or ``None``, any edge for all.
        """
        return None

    def stall_error(self, rounds: int) -> SamplingError:
        """The error of a walker left undecided ``rounds`` supersteps
        running (the batch superstep raises it at its stall bound)."""
        return SamplingError(f"{self.name} left a walker undecided for {rounds} supersteps")

    def termination_probability(self, hops: int | np.ndarray) -> float | np.ndarray:
        """Probability the walk ends after the hop a walker that has
        taken ``hops`` hops takes next, by algorithmic choice (PPR's
        teleport).  0.0 — never — by default.

        ``hops`` is an int or an int64 array of per-walker counts, as
        for :meth:`admissible_type`; an answer that does not depend on
        the hop may stay one scalar for every walker.  Declaring the
        probability (rather than only the draw) lets the batch engine
        apply termination to a whole frontier with one vectorized draw,
        made only by walkers whose probability is above 0.
        """
        return 0.0

    def terminates_probabilistically(
        self, hops: int, random_source: RandomSource
    ) -> bool:
        """Whether the walk ends after the hop taken at ``hops`` by
        algorithmic choice; draws one uniform only when
        :meth:`termination_probability` is non-zero, preserving RNG
        stream alignment for non-terminating specs."""
        probability = self.termination_probability(hops)
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

    @classmethod
    def from_path(cls, path: np.ndarray) -> "WalkResults":
        """Adopt one finished int64 path, as it is — a served reply: the
        caller hands over an array that owns its memory."""
        results = cls.__new__(cls)
        results._paths, results._flat, results._offsets = [path], None, None
        results.total_steps = path.size - 1
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
        longer-lived holder (a served reply) given a view
        would pin every other query's path with it.
        """
        if self._flat is not None:
            return self._flat[self._offsets[position]:self._offsets[position + 1]].copy()
        path = self._paths[position]
        return path.copy() if path.base is not None else path


def unpack_queries(queries: Sequence[Query]) -> tuple[np.ndarray, np.ndarray]:
    """``(query_ids, start_vertices)`` of a batch as aligned read-only
    int64 arrays: a :class:`WalkBatch`'s own two arrays, not copied; any
    other sequence of :class:`Query` read once into new ones."""
    batch = WalkBatch.of(queries)
    return batch.ids, batch.starts


def compact_path_matrix(paths: np.ndarray, hops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather each row's valid prefix into one contiguous buffer.

    Returns ``(flat, lengths)`` where ``flat`` is the concatenation of
    ``paths[i, :hops[i] + 1]`` for every row, in row order — the dense
    matrix's route into the compact representation
    (:meth:`WalkResults.extend_from_matrix`).
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
    flat: np.ndarray,
    hops: np.ndarray,
    step_log: Sequence[np.ndarray | tuple[np.ndarray, np.ndarray]],
) -> None:
    """Fill ``flat`` from one block of rows' superstep-major log.

    ``flat`` holds the block's paths back to back — row ``k`` takes
    ``hops[k] + 1`` slots, its start vertex already in the first (a
    slice of :func:`start_path_buffer`'s buffer) — and receives every
    hop.  ``step_log[s]`` holds the vertex reached in superstep ``s`` by
    every row still walking, in row order — what a compact frontier
    emits.  Without stalls that is hop ``s`` of every row with ``hops >
    s``.  A superstep in which rows stalled logs ``(vertices, stalled)``,
    ``stalled`` indexing the rows of ``vertices`` that did not move and
    hold the vertex they stay on: they are skipped, and take that hop in
    a later superstep (a stall is always followed by a hop).  The hop
    counts fix the layout, so each superstep lands in its final slots
    with one scatter; the destinations compact as the frontier did, so
    no row index is logged and no path matrix built.  Blocks fill
    disjoint slices, so they may fill concurrently.
    """
    # Row k has a hop still to write while ``left[k] > step``: its hop
    # count plus the supersteps it has stalled in so far.
    dest, left = path_offsets(hops + 1)[:-1] + 1, hops.copy()
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


def make_queries(
    graph: CSRGraph,
    count: int,
    seed: int = 0,
    start_vertices: Sequence[int] | None = None,
    require_outgoing: bool = True,
) -> WalkBatch:
    """Build a query batch with random (or given) start vertices.

    Query ``i`` has id ``i``.  The batch is two arrays (a
    :class:`WalkBatch`); an engine run reads them as they are, and a
    :class:`Query` is made only for a caller that indexes or iterates
    the batch.  Given ``start_vertices`` are held to
    :func:`walk_index`'s rule: a bool, a float or a negative start
    raises :class:`WalkConfigError` naming ``start_vertex``.
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
        return WalkBatch(np.arange(count), start_vertices)
    rng = np.random.default_rng(seed)
    if require_outgoing:
        candidates = np.nonzero(graph.degrees() > 0)[0]
        if candidates.size == 0:
            raise WalkConfigError("graph has no vertex with outgoing edges")
    else:
        candidates = np.arange(graph.num_vertices)
    return WalkBatch(np.arange(count), rng.choice(candidates, size=count, replace=True))
