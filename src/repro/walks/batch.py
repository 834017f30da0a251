"""NumPy-vectorized batch walk engine: compact frontier + hop log.

RidgeWalker decomposes a walk into stateless ``(query, step, v_last[,
v_prev])`` tasks so its pipeline only carries live work.  This is the
software form, in ThunderRW's step-centric shape — one step function
over a dense task array, many schedulers:

* :class:`Frontier` holds **live walkers only** (row, current and
  previous vertex, splitmix64 stream state) and is boolean-compacted at
  the three death points — dangling vertex, nothing admissible, teleport
  — only on steps where a walker dies.  No dead lanes.
* :func:`superstep` is the one copy of ``dangling -> sample -> early
  termination | stall | advance -> teleport``; the batch engine, the
  parallel workers, the open frontier and the dist shard workers call
  it.  Stream states travel with the frontier, so kernels draw with
  ``stream_idx=None`` ("stream k is walker k") and whole-frontier draws
  advance in place.  A walker the kernel left undecided (a rejected
  Node2Vec proposal) *stalls*: it stays where it is and proposes again
  next superstep, beside walkers hops ahead of it — the superstep is the
  retry loop, so no superstep waits for its unluckiest walker.
* Each step's next vertices go to a hop log, scattered once — when the
  hop counts are known — into the flat buffer ``WalkResults`` adopts
  (:func:`~repro.walks.base.paths_from_step_log`).  No path matrix.
  Every run ends each walker on its own hop count.
* :class:`OpenFrontier` is the open form of a run, for a caller whose
  queries keep arriving (the walk service): walkers are admitted into
  free slots and retired on their own hop count between supersteps, so a
  lane freed by a short walk takes the next query at once instead of
  idling until the longest walk of a closed batch ends.

Same API, ``SeedSequence((seed, query_id))`` substream keying and
:class:`EngineStats` semantics as :func:`repro.walks.reference.run_walks`;
chi-square tests hold it to that engine, ``tests/walks/test_compact_core.py``
to the pre-compaction core bit for bit, ``benchmarks/suite`` measures it.
:class:`BatchEngine` is the engine (its array hook is what parallel
workers run against a loaded kernel); :func:`run_walks_batch` is the
one-call ``Query`` form, :func:`run_walks_batch_flat` the one-call array
form and :func:`run_walks_batch_arrays` its dense adapter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from repro.errors import SamplingError, WalkConfigError
from repro.graph.csr import CSRGraph
from repro.obs.trace import active as _active_tracer
from repro.sampling.vectorized import (
    MAX_STALLS,
    BatchSample,
    QueryStreams,
    VectorizedKernel,
    seed_sequence_states,
)
from repro.walks.base import Query, WalkResults, WalkSpec, paths_from_step_log
from repro.walks.engine import (
    STAT_FIELDS,
    PreparedEngine,
    check_start_vertices,
    prepared_kernel,
    run_arrays,
)
from repro.walks.reference import EngineStats

(_PROPOSALS, _READS, _DANGLING, _EARLY, _PROBABILISTIC, _LENGTH) = range(len(STAT_FIELDS))

#: No indices: the stalls of a superstep without any, an empty admission.
_NO_SLOTS = np.empty(0, dtype=np.int64)

#: The walker arrays of a :class:`Frontier` besides its stall streaks.
_WALKER_FIELDS = ("pos", "current", "previous", "state")


@dataclass(slots=True)
class Frontier:
    """The live walkers of a run, as aligned arrays.

    ``pos[k]`` is walker ``k``'s row in the original batch, ``state[k]``
    its raw splitmix64 substream state (see
    :meth:`QueryStreams.from_states`).  ``previous`` stays all ``-1``
    under a first-order spec, so there it only ever shrinks to a prefix
    of itself.  ``stalls[k]`` counts the supersteps walker ``k`` has
    stalled in a row; it is ``None`` whenever no walker is stalled,
    which is all a walk that never stalls ever carries.
    """

    pos: np.ndarray
    current: np.ndarray
    previous: np.ndarray
    state: np.ndarray
    stalls: np.ndarray | None = None

    @classmethod
    def start(cls, pos: np.ndarray, starts: np.ndarray, states: np.ndarray) -> "Frontier":
        """Every walker on its start vertex, nothing visited before it."""
        return cls(pos, starts, np.full(starts.size, -1, dtype=np.int64), states)

    @classmethod
    def concat(cls, parts: Sequence["Frontier"]) -> "Frontier":
        """The walkers of ``parts``, in order, as one frontier."""
        stalls = None
        if any(part.stalls is not None for part in parts):
            stalls = np.concatenate([
                np.zeros(part.size, dtype=np.int64) if part.stalls is None else part.stalls
                for part in parts
            ])
        columns = (np.concatenate([getattr(part, name) for part in parts])
                   for name in _WALKER_FIELDS)
        return cls(*columns, stalls)

    @property
    def size(self) -> int:
        return self.pos.size

    def subset(self, mask: np.ndarray) -> "Frontier":
        """The walkers where ``mask`` is True, as a new frontier."""
        columns = (getattr(self, name)[mask] for name in _WALKER_FIELDS)
        return Frontier(*columns, None if self.stalls is None else self.stalls[mask])

    def keep(self, mask: np.ndarray, second_order: bool) -> None:
        """Drop the walkers where ``mask`` is False (order preserved).
        A first-order frontier's ``previous`` is all ``-1``: any prefix of
        it is the compacted array, so it is sliced, not gathered."""
        self.pos = self.pos[mask]
        self.current = self.current[mask]
        self.previous = self.previous[mask] if second_order else self.previous[: self.pos.size]
        self.state = self.state[mask]
        if self.stalls is not None:
            self.stalls = self.stalls[mask]


def superstep(
    graph: CSRGraph,
    spec: WalkSpec,
    kernel: VectorizedKernel,
    step: int,
    frontier: Frontier,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Take every walker of ``frontier`` through one superstep, in place.

    Each walker comes out one of four ways: its vertex is *dangling*, or
    the kernel found *nothing admissible* — both end the walk; the kernel
    left it *stalled* (a rejected proposal), so it keeps its vertex and
    proposes again next superstep; or it *moved*, and then draws its
    teleport uniform.  Returns ``(pos, next_vertex, stalled)``, the hop
    record of every walker that moved or stalled: ``stalled`` indexes
    the entries of the stalled (ascending; empty in a superstep without
    stalls), whose ``next_vertex`` is the vertex they stay on.
    ``frontier`` keeps the movers that did not teleport and the stalled;
    proposals, reads and the three kinds of death are added to ``counts``
    (:data:`STAT_FIELDS` order).  Every draw consumes only its walker's
    own stream state, in an order fixed by that walker's trajectory, so
    neither frontier composition nor how many supersteps a hop took can
    change a path.

    ``step`` is what the spec's hooks are asked with.  A walker that has
    stalled is behind the superstep count, so a stall under a spec that
    is not :attr:`~repro.walks.base.WalkSpec.step_invariant` raises
    :class:`~repro.errors.WalkConfigError` before the superstep draws
    anything more.  A stall promises a later hop: a walker stalled
    :data:`MAX_STALLS` supersteps running raises the kernel's
    :class:`~repro.errors.SamplingError`, and so does a kernel ending a
    walker it stalled.
    """
    second_order = spec.needs_prev_vertex
    dangling = graph.degrees()[frontier.current] == 0
    if dangling.any():
        counts[_DANGLING] += np.count_nonzero(dangling)
        frontier.keep(~dangling, second_order)
    if frontier.size == 0:
        # Kernels are never asked to sample an empty frontier.
        return frontier.pos, frontier.current, _NO_SLOTS

    batch = kernel.sample(
        graph,
        frontier.current,
        frontier.previous,
        spec.admissible_type(step),
        QueryStreams.from_states(frontier.state),
        None,
    )
    counts[_PROPOSALS] += batch.proposals
    counts[_READS] += batch.neighbor_reads
    if batch.stalled.size:
        return _stalled_superstep(spec, kernel, step, frontier, counts, batch)
    next_vertex = batch.vertex
    moved = next_vertex >= 0
    if not moved.all():
        _end_early(kernel, frontier, counts, ~moved)
        frontier.keep(moved, second_order)
        next_vertex = next_vertex[moved]
    # Nobody stalled: every stall streak is over.
    frontier.stalls = None

    if second_order:
        frontier.previous = frontier.current
    frontier.current = next_vertex
    pos = frontier.pos

    teleport = spec.termination_probability(step)
    if teleport > 0.0:
        stay = QueryStreams.from_states(frontier.state).uniforms() >= teleport
        if not stay.all():
            counts[_PROBABILISTIC] += stay.size - np.count_nonzero(stay)
            frontier.keep(stay, second_order)
    return pos, next_vertex, _NO_SLOTS


def _end_early(
    kernel: VectorizedKernel, frontier: Frontier, counts: np.ndarray, ended: np.ndarray
) -> None:
    """Count the walkers ``ended`` marks as ended by the kernel, which may
    not end one it stalled: that walker's hop was promised."""
    if frontier.stalls is not None and frontier.stalls[ended].any():
        raise SamplingError(
            f"{type(kernel).__name__} ended a walker it had stalled; a stalled "
            "walker must take its hop in a later superstep"
        )
    counts[_EARLY] += np.count_nonzero(ended)


def _stalled_superstep(
    spec: WalkSpec,
    kernel: VectorizedKernel,
    step: int,
    frontier: Frontier,
    counts: np.ndarray,
    batch: BatchSample,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rest of :func:`superstep` once the kernel stalled walkers: the
    stalled keep their vertices and extend their streaks, the movers
    advance and draw their teleport uniforms."""
    stalled = batch.stalled
    if not spec.step_invariant:
        raise WalkConfigError(
            f"{type(spec).__name__} is not step-invariant, so a walker that "
            "stalls cannot take its hop in a later superstep"
        )
    if frontier.stalls is None:
        streak = np.ones(stalled.size, dtype=np.int64)
    else:
        streak = frontier.stalls[stalled] + 1
    if streak.max() >= MAX_STALLS:
        raise kernel.stalled_out(MAX_STALLS)

    next_vertex = batch.vertex
    moved = next_vertex >= 0
    if np.count_nonzero(moved) + stalled.size < moved.size:
        walking = moved.copy()
        walking[stalled] = True
        _end_early(kernel, frontier, counts, ~walking)
        # Stall indices into the walkers that are left.
        stalled = np.cumsum(walking)[stalled] - 1
        frontier.keep(walking, spec.needs_prev_vertex)
        next_vertex, moved = next_vertex[walking], moved[walking]

    if spec.needs_prev_vertex:
        previous = frontier.current.copy()
        previous[stalled] = frontier.previous[stalled]
        frontier.previous = previous
    next_vertex[stalled] = frontier.current[stalled]
    frontier.current = next_vertex
    frontier.stalls = np.zeros(next_vertex.size, dtype=np.int64)
    frontier.stalls[stalled] = streak
    pos = frontier.pos

    teleport = spec.termination_probability(step)
    if teleport > 0.0:
        stay = QueryStreams.from_states(frontier.state).uniforms(moved) >= teleport
        if not stay.all():
            counts[_PROBABILISTIC] += stay.size - np.count_nonzero(stay)
            keep = np.ones(moved.size, dtype=bool)
            keep[moved] = stay
            frontier.keep(keep, spec.needs_prev_vertex)
    return pos, next_vertex, stalled


class BatchEngine(PreparedEngine):
    """The vectorized engine: a prepared kernel driven by :func:`superstep`.

    ``kernel``, when given, must already be prepared (or loaded) for
    ``graph`` and needs nothing beyond ``sample`` — a pool worker passes
    the kernel it loaded from shared memory, a tracer a timing proxy.
    """

    name = "batch"

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        sampler: str = "default",
        kernel: VectorizedKernel | None = None,
    ) -> None:
        self._configure(graph, spec, sampler)
        if kernel is None:
            _, kernel = prepared_kernel(spec, sampler, graph)
        self._adopt(self._graph, kernel)

    def _adopt(self, graph: CSRGraph, kernel: VectorizedKernel) -> None:
        self._graph = graph
        self._kernel = kernel

    def _run_arrays(self, query_ids, starts, seed):
        graph, spec, kernel = self._graph, self._spec, self._kernel
        frontier = Frontier.start(
            np.arange(starts.size), starts, seed_sequence_states(seed, query_ids)
        )
        hops = np.zeros(starts.size, dtype=np.int64)
        counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
        log: list = []
        max_length = spec.max_length
        # Each row's stalls so far, from the run's first stall on.  Every
        # row still walking has been in every superstep, and a stall is
        # always followed by a hop, so a row's hop count is the supersteps
        # up to its last hop less its stalls.
        behind = None

        # Hoisted once per run: with tracing disabled (the default) the
        # per-superstep cost is one local ``is not None`` branch — the
        # overhead contract benchmarks/bench_obs_overhead.py enforces.
        tracer = _active_tracer()

        step = 0
        while frontier.size:
            if tracer is not None:
                _span_start = tracer.begin()
                _span_width = frontier.size
            pos, next_vertex, stalled = superstep(graph, spec, kernel, step, frontier, counts)
            step += 1
            hops[pos] = step
            if stalled.size:
                if behind is None:
                    behind = np.zeros(starts.size, dtype=np.int64)
                behind[pos[stalled]] += 1
                log.append((next_vertex, stalled))
            else:
                log.append(next_vertex)
            if step >= max_length and frontier.size:
                # Walkers end on their own hop count: one that stalled
                # is behind the superstep count and walks on.
                if behind is None:
                    short = np.zeros(frontier.size, dtype=bool)
                else:
                    short = step - behind[frontier.pos] < max_length
                counts[_LENGTH] += short.size - np.count_nonzero(short)
                frontier.keep(short, spec.needs_prev_vertex)
            if tracer is not None:
                tracer.end(_span_start, "batch.superstep", step=step - 1,
                           frontier=_span_width, survivors=pos.size)

        if behind is not None:
            hops -= behind
        return *paths_from_step_log(starts, hops, log), counts

    @property
    def open_frontier(self):
        """``open_frontier(seed, capacity) -> OpenFrontier``: the open
        form of :meth:`run`, offered only where it is exact.

        Walkers of different ages share a superstep there, and the
        kernels take one scalar ``step``, so the spec must be
        :attr:`~repro.walks.base.WalkSpec.step_invariant`; otherwise the
        attribute is absent (``hasattr`` is False) and callers keep to
        closed runs.  :class:`PreparedEngine` has no such attribute: the
        pool engines step in other processes.
        """
        if not self._spec.step_invariant:
            raise AttributeError(
                f"{type(self._spec).__name__} is not step-invariant; "
                f"engine {self.name!r} offers closed runs only"
            )
        return partial(OpenFrontier, self)


class OpenFrontier:
    """A run that stays open: walkers join and leave between supersteps.

    ``capacity`` slots, each holding one walk in a row of a ``(capacity,
    max_length + 1)`` slab.  :meth:`admit` seats walkers in free slots,
    :meth:`step` takes every live walker through the one
    :func:`superstep` — a stalled walker stays seated, a hop behind — and
    returns the slots whose walks ended — dangling, nothing admissible,
    teleport, or the walker's *own* hop count reaching ``max_length`` —
    and :meth:`take` hands a finished path out and frees its slot.  A walker draws only from the stream
    state that travels with it, so each path, and the sum of every
    counter, equals a closed :meth:`BatchEngine.run` of the same
    ``(query_id, start, seed)`` whatever shared its supersteps
    (``tests/walks/test_open_frontier.py``).

    Reads the engine's graph and kernel at every step, so a snapshot swap
    while no walker is live needs no re-open; swapping under live walkers
    would mix graph versions within a path and is the caller's to avoid.
    """

    def __init__(self, engine: BatchEngine, seed: int, capacity: int) -> None:
        if capacity < 1:
            raise WalkConfigError(f"capacity must be >= 1, got {capacity}")
        self._engine = engine
        self._seed = seed
        self._max_length = engine._spec.max_length
        self._paths = np.empty((capacity, self._max_length + 1), dtype=np.int64)
        self._hops = np.zeros(capacity, dtype=np.int64)
        self._walking = np.zeros(capacity, dtype=bool)
        self.capacity = capacity
        #: Running :data:`STAT_FIELDS` counters of everything stepped here.
        self.counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
        self.abandon()

    @property
    def live(self) -> int:
        """Walkers the next :meth:`step` will advance."""
        return self._frontier.size

    @property
    def free(self) -> int:
        """Slots :meth:`admit` can fill (ended walks hold theirs until taken)."""
        return len(self._free)

    def admit(self, query_ids, starts, states=None) -> np.ndarray:
        """Seat one walker per aligned ``(query_id, start)``; returns their slots.

        ``states`` are the walkers' stream states where the caller has
        already derived them (``seed_sequence_states(seed, query_ids)``),
        else they are derived here.  More walkers than :attr:`free`, a
        start vertex outside the graph or a negative id raise before
        anything is seated.
        """
        starts = np.asarray(starts, dtype=np.int64)
        count = starts.size
        if count > len(self._free):
            raise WalkConfigError(
                f"cannot admit {count} walkers into {len(self._free)} free slots"
            )
        check_start_vertices(self._engine._graph, starts)
        if states is None:
            states = seed_sequence_states(self._seed, query_ids)
        if len(states) != count or len(query_ids) != count:
            raise WalkConfigError("query ids, starts and states must align")
        if count == 0:
            return _NO_SLOTS
        slots = np.array(self._free[-count:], dtype=np.int64)
        del self._free[-count:]
        self._paths[slots, 0] = starts
        self._hops[slots] = 0
        self._walking[slots] = True
        frontier = self._frontier
        frontier.pos = np.concatenate((frontier.pos, slots))
        frontier.current = np.concatenate((frontier.current, starts))
        frontier.previous = np.concatenate((frontier.previous, np.full(count, -1, dtype=np.int64)))
        frontier.state = np.concatenate((frontier.state, np.asarray(states, dtype=np.uint64)))
        if frontier.stalls is not None:
            frontier.stalls = np.concatenate((frontier.stalls, np.zeros(count, dtype=np.int64)))
        return slots

    def step(self) -> np.ndarray:
        """One superstep over the live walkers; returns the slots whose
        walks ended in it; :meth:`take` each once."""
        engine, frontier, hops = self._engine, self._frontier, self._hops
        spec = engine._spec
        seated = frontier.pos
        # Step-invariant spec: the hooks ignore the step they are given.
        pos, next_vertex, stalled = superstep(
            engine._graph, spec, engine._kernel, 0, frontier, self.counts
        )
        reached = hops[pos] + 1
        # A stalled walker rewrites the vertex it stays on.
        reached[stalled] -= 1
        hops[pos] = reached
        self._paths[pos, reached] = next_vertex
        if frontier.size:
            short = hops[frontier.pos] < self._max_length
            if not short.all():
                self.counts[_LENGTH] += short.size - np.count_nonzero(short)
                frontier.keep(short, spec.needs_prev_vertex)
        if frontier.size == seated.size:
            return _NO_SLOTS
        walking = self._walking
        walking[seated] = False
        walking[frontier.pos] = True
        return seated[~walking[seated]]

    def take(self, slot: int) -> np.ndarray:
        """The finished walk of ``slot`` (start vertex included) as an
        array that owns its memory; the slot is free again."""
        path = self._paths[slot, : self._hops[slot] + 1].copy()
        self._free.append(slot)
        return path

    def abandon(self) -> None:
        """Drop every walker, live or ended and untaken: all slots free.
        What a caller does after :meth:`step` raised (the frontier may be
        half-compacted) or when it stops without draining."""
        self._frontier = Frontier.start(
            _NO_SLOTS, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
        )
        self._walking[:] = False
        self._free = list(range(self.capacity - 1, -1, -1))


def run_walks_batch_flat(
    graph: CSRGraph,
    spec: WalkSpec,
    kernel: VectorizedKernel,
    start_vertices: np.ndarray,
    query_ids: np.ndarray,
    seed: int = 0,
    stats: EngineStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Array form: run walks for aligned start/id arrays.

    ``kernel`` must already be prepared for ``graph``.  Returns ``(flat,
    offsets)``: the walk of ``query_ids[k]`` is
    ``flat[offsets[k]:offsets[k + 1]]``, start vertex included.  All
    :class:`EngineStats` counters — including ``per_query_hops``, in the
    order of the given arrays — are accumulated into ``stats``.
    """
    hook = BatchEngine(graph, spec, kernel=kernel)._run_arrays
    starts = np.array(start_vertices, dtype=np.int64)
    return run_arrays(graph, hook, query_ids, starts, seed, stats)


def dense_path_matrix(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(paths, hops)`` form of a compact path buffer: row ``k`` holds
    its walk in ``paths[k, :hops[k] + 1]``, the rest is unspecified."""
    lengths = np.diff(offsets)
    paths = np.empty((lengths.size, int(lengths.max(initial=1))), dtype=np.int64)
    paths[np.arange(paths.shape[1]) < lengths[:, None]] = flat
    return paths, lengths - 1


def run_walks_batch_arrays(
    graph: CSRGraph,
    spec: WalkSpec,
    kernel: VectorizedKernel,
    start_vertices: np.ndarray,
    query_ids: np.ndarray,
    seed: int = 0,
    stats: EngineStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense adapter over :func:`run_walks_batch_flat`: returns ``(paths,
    hops)`` with ``paths`` a ``(num_queries, max(hops) + 1)`` int64 matrix
    (see :func:`dense_path_matrix`)."""
    return dense_path_matrix(*run_walks_batch_flat(
        graph, spec, kernel, start_vertices, query_ids, seed=seed, stats=stats
    ))


def run_walks_batch(
    graph: CSRGraph,
    spec: WalkSpec,
    queries: Sequence[Query],
    seed: int = 0,
    stats: EngineStats | None = None,
    kernel: VectorizedKernel | None = None,
    sampler: str = "default",
) -> WalkResults:
    """Execute ``queries`` under ``spec`` with frontier supersteps.

    Deterministic in ``seed`` and independent of query order, like the
    reference engine; per-query paths are *statistically* equivalent to
    the reference engine's, not bit-identical (the engines consume their
    substreams in different patterns).

    ``kernel``, when given, must already be prepared for ``graph``.
    ``sampler`` selects the kernel family when no kernel is given:
    ``"default"`` runs the spec's own single-strategy kernel, ``"auto"``
    the cost-model-driven hybrid (:mod:`repro.sampling.hybrid`).
    Repeated callers hold a :class:`BatchEngine` instead, to pay the
    alias-table/edge-key construction once.
    """
    return BatchEngine(graph, spec, sampler, kernel=kernel).run(queries, seed=seed, stats=stats)
