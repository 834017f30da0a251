"""NumPy-vectorized batch walk engine: compact frontier + hop log.

RidgeWalker decomposes a walk into stateless ``(query, step, v_last[,
v_prev])`` tasks so its pipeline only carries live work.  This is the
software form, in ThunderRW's step-centric shape — one step function
over a dense task array, many schedulers:

* :class:`Frontier` holds **live walkers only** (row, current and
  previous vertex, splitmix64 stream state, hop count) and is
  boolean-compacted at the four death points — dangling vertex, nothing
  admissible, teleport, length — only on steps where a walker dies.  No
  dead lanes.
* :func:`superstep` is the one copy of ``dangling -> sample -> early
  termination | stall | advance -> teleport -> length``; every lane of
  a closed run and the open frontier call it.  Stream states and hop
  counts travel with the frontier, so kernels draw with
  ``stream_idx=None`` ("stream k is walker k"), whole-frontier draws
  advance in place, and the spec's hooks are asked with each walker's
  own hop count.  A walker the kernel
  left undecided (a rejected Node2Vec proposal) *stalls*: it stays where
  it is and proposes again next superstep, beside walkers hops ahead of
  it — the superstep is the retry loop, so no superstep waits for its
  unluckiest walker.
* Each step's next vertices go to a hop log, scattered once — when the
  hop counts are known — into the flat buffer ``WalkResults`` adopts
  (:func:`~repro.walks.base.paths_from_step_log`).  No path matrix.
* :class:`OpenFrontier` is the open form of a run, for a caller whose
  queries keep arriving (the walk service): walkers are admitted into
  free slots and retired on their own hop count between supersteps, so a
  slot freed by a short walk takes the next query at once instead of
  idling until the longest walk of a closed batch ends.
* A large closed run fans out to *lanes* (:func:`lane_count`), one per
  usable CPU: each lane takes one contiguous row block with its own
  frontier, hop log and counters through the same superstep loop —
  lane 0 on the calling thread, the others on a private thread pool —
  and, once every hop count is in, fills its own slice of the one flat
  buffer.  numpy releases the GIL inside each pass, so the lanes
  overlap, and every walker draws only from its own stream, so paths
  and counters do not depend on the lane count
  (``tests/walks/test_lanes.py``).  The open frontier and small batches
  run one lane.

Lanes on the ``deepwalk_batch`` shape (RMAT-16, 50k DeepWalk queries,
length 80), 2-CPU host: in a traced call of ~100 ms the two lanes walk
for 76.0 ms (calling thread) and 76.8 ms (pool thread), and fill their
slices in the rest.  One lane takes 153 ms on the main thread and 146 ms
on another, so a non-main thread costs nothing once warm.  The pool
thread allocates from its own malloc arena, which at the fill holds its
lane's hop log (10.6 MB) and 1.8 MB of freed temporaries, so peak RSS
grows by ~12 MiB on the first run that fans out and not after.

Same API, ``SeedSequence((seed, query_id))`` substreams and
:class:`EngineStats` semantics as :func:`repro.walks.reference.run_walks`,
which walks bit-identically (``tests/walks/test_engine_matrix.py``);
``tests/walks/test_compact_core.py`` holds it to the pre-compaction core
bit for bit, ``benchmarks/suite`` measures it.
:class:`BatchEngine` is the engine; :func:`run_walks_batch` is the
one-call ``Query`` form, :func:`run_walks_batch_flat` the one-call array
form and :func:`run_walks_batch_arrays` its dense adapter.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from itertools import pairwise
from typing import Callable, Sequence

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
from repro.walks.base import (
    Query,
    WalkResults,
    WalkSpec,
    paths_from_step_log,
    start_path_buffer,
)
from repro.walks.engine import (
    STAT_FIELDS,
    EngineStats,
    PreparedEngine,
    check_start_vertices,
    prepared_kernel,
    run_arrays,
    usable_cpus,
)

(_PROPOSALS, _READS, _DANGLING, _EARLY, _PROBABILISTIC, _LENGTH) = range(len(STAT_FIELDS))

#: Fewest walkers a lane of a closed run takes (:func:`lane_count`).
#: Every superstep hands the GIL between lanes a few dozen times, and
#: numpy keeps it through small passes, so a small block loses to its
#: hand-offs what a second core gives it.  Two lanes against one,
#: in-process on RMAT-16 at length 80, 2-CPU host: DeepWalk 0.63x at
#: 8,192 walkers, 0.85x at 16,384, 1.04x at 20,000, 1.38x at 32,768,
#: 1.64x at 50,000 and 1.70x at 100,000; Node2Vec 0.78x at 10,000 and
#: 1.08x at 20,000; PPR, whose frontier thins out early, 0.94x at 32,768
#: and 1.08x at 50,000.  The cut sits where DeepWalk's two blocks gain.
#:
#: What caps more lanes is the share of a run that stays serial.  On
#: DeepWalk at 50,000 walkers (same host, three runs of nine calls), a
#: call on two lanes is 1.49-1.63x faster than on one: an Amdahl serial
#: share of 23-34%, so a ceiling of 2.9-4.4x however many cores.  Each
#: lane's ``time.thread_time`` is 90-92% of its wall time, so waiting
#: for the GIL is only 8-10% of a lane.  The rest of the serial share is
#: extra work: the two lanes together spend 1.2x the CPU time of one
#: (they contend for memory bandwidth and cache), and the unpack and
#: buffer set-up around them run alone.
_MIN_BLOCK_WALKERS = 16384

#: The lane pool (:func:`_lane_pool`) and the lock that creates it once.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()

#: No indices: the stalls of a superstep without any, an empty admission.
_NO_SLOTS = np.empty(0, dtype=np.int64)


@dataclass(slots=True)
class Frontier:
    """The live walkers of a run, as aligned arrays.

    ``pos[k]`` is walker ``k``'s row in the original batch, ``state[k]``
    its raw splitmix64 substream state (see
    :meth:`QueryStreams.from_states`), ``hops[k]`` the hops it has taken
    — its own clock, all zeros when not given.  ``previous`` stays all
    ``-1`` under a first-order spec, so there it only ever shrinks to a
    prefix of itself.  ``stalls[k]`` counts the supersteps walker ``k``
    has stalled in a row; it is ``None`` whenever no walker is stalled,
    which is all a walk that never stalls ever carries.
    """

    pos: np.ndarray
    current: np.ndarray
    previous: np.ndarray
    state: np.ndarray
    hops: np.ndarray | None = None
    stalls: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.hops is None:
            self.hops = np.zeros(self.pos.size, dtype=np.int64)

    @classmethod
    def start(cls, pos: np.ndarray, starts: np.ndarray, states: np.ndarray) -> "Frontier":
        """Every walker on its start vertex, nothing visited before it."""
        return cls(pos, starts, np.full(starts.size, -1, dtype=np.int64), states)

    @property
    def size(self) -> int:
        return self.pos.size

    def keep(self, mask: np.ndarray, second_order: bool) -> None:
        """Drop the walkers where ``mask`` is False (order preserved).
        A first-order frontier's ``previous`` is all ``-1``: any prefix of
        it is the compacted array, so it is sliced, not gathered."""
        self.pos = self.pos[mask]
        self.current = self.current[mask]
        self.previous = self.previous[mask] if second_order else self.previous[: self.pos.size]
        self.state = self.state[mask]
        self.hops = self.hops[mask]
        if self.stalls is not None:
            self.stalls = self.stalls[mask]


def superstep(
    graph: CSRGraph,
    spec: WalkSpec,
    kernel: VectorizedKernel,
    frontier: Frontier,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Take every walker of ``frontier`` through one superstep, in place.

    Each walker comes out one of four ways: its vertex is *dangling*, or
    the kernel found *nothing admissible* — both end the walk; the kernel
    left it *stalled* (a rejected proposal), so it keeps its vertex and
    proposes again next superstep; or it *moved*: its hop count grows by
    one, it draws its teleport uniform, and it ends if it teleported or
    its count reached ``max_length``.  Returns ``(pos, hop, next_vertex,
    stalled)``, the hop record of every walker that moved or stalled:
    ``next_vertex`` is vertex ``hop`` of row ``pos``'s path, and
    ``stalled`` indexes the entries of the stalled (ascending; empty in a
    superstep without stalls), whose ``next_vertex`` is the vertex they
    stay on at the hop count they keep.  ``frontier`` keeps the movers
    that did not end and the stalled; proposals, reads and the four
    kinds of death are added to ``counts`` (:data:`STAT_FIELDS` order).
    Every draw consumes only its walker's own stream state, in an order
    fixed by that walker's trajectory, so neither frontier composition
    nor how many supersteps a hop took can change a path.

    The fixed cost is paid once: each walker's out-degree is read once,
    to find the dangling, and handed to the kernel as ``degrees``; the
    kernel and the teleport draw through one :class:`QueryStreams` view
    of the carried states; the kernel names the walks it ended
    (``BatchSample.ended``) and the walkers it stalled, so ``vertex`` is
    never scanned; and every walker that ends after sampling — early,
    by teleport or by length — leaves in one compaction at the end.

    The spec's hooks are asked with ``frontier.hops`` before the hop —
    each walker's 0-based index of the hop it is taking — so walkers of
    any age, stalled or not, share a superstep under any spec.  A stall
    promises a later hop: a walker stalled :data:`MAX_STALLS` supersteps
    running raises the spec's :meth:`~repro.walks.base.WalkSpec.stall_error`,
    and a kernel ending a walker it stalled raises a
    :class:`~repro.errors.SamplingError` too.  Either way the kernel is
    asked for nothing beyond ``sample``.
    """
    second_order = spec.needs_prev_vertex
    degrees = graph.degrees()[frontier.current]
    # One count finds the dangling, not a mask and a reduction: on a few
    # dozen walkers a pass's set-up is its cost.
    dead = degrees.size - np.count_nonzero(degrees)
    if dead:
        counts[_DANGLING] += dead
        walking = degrees > 0
        frontier.keep(walking, second_order)
        degrees = degrees[walking]
    if frontier.size == 0:
        # Kernels are never asked to sample an empty frontier.
        return frontier.pos, frontier.hops, frontier.current, _NO_SLOTS

    streams = QueryStreams.from_states(frontier.state)
    taken = frontier.hops
    batch = kernel.sample(graph, frontier.current, frontier.previous,
                          spec.admissible_type(taken), streams, None, degrees)
    counts[_PROPOSALS] += batch.proposals
    counts[_READS] += batch.neighbor_reads
    if batch.stalled.size or batch.ended.size:
        moved, gone, record = _settle(spec, kernel, frontier, counts, batch)
    else:
        # Everyone moved: every stall streak is over.
        moved = gone = None
        frontier.stalls = None
        if second_order:
            frontier.previous = frontier.current
        frontier.current = batch.vertex
        frontier.hops = taken + 1
        record = frontier.pos, frontier.hops, batch.vertex, _NO_SLOTS

    teleported = _teleport(spec, streams, taken, moved, counts)
    if teleported is not None:
        gone = teleported if gone is None else gone | teleported
    hops, max_length = frontier.hops, spec.max_length
    if hops.max() >= max_length:
        # Only a mover reaches the length, and one that teleported has ended.
        long = hops >= max_length
        if gone is not None:
            long &= ~gone
            gone |= long
        else:
            gone = long
        counts[_LENGTH] += np.count_nonzero(long)
    if gone is not None:
        frontier.keep(~gone, second_order)
    return record


def _settle(
    spec: WalkSpec,
    kernel: VectorizedKernel,
    frontier: Frontier,
    counts: np.ndarray,
    batch: BatchSample,
) -> tuple[np.ndarray, np.ndarray | None, tuple]:
    """Apply a decision in which the kernel stalled or ended walkers: the
    stalled keep their vertices and extend their streaks, the movers
    advance, the ended are counted.  Nothing is compacted.  Returns
    ``(moved, ended, record)``: the movers' mask, the ended walkers' mask
    (``None`` when there are none) and the superstep's hop record, which
    leaves the ended out."""
    second_order = spec.needs_prev_vertex
    stalled, ended = batch.stalled, batch.ended
    if stalled.size:
        streak = (np.ones(stalled.size, dtype=np.int64) if frontier.stalls is None
                  else frontier.stalls[stalled] + 1)
        if streak.max() >= MAX_STALLS:
            raise spec.stall_error(MAX_STALLS)
    if ended.size:
        if frontier.stalls is not None and frontier.stalls[ended].any():
            raise SamplingError(
                f"{type(kernel).__name__} ended a walker it had stalled; a stalled "
                "walker must take its hop in a later superstep"
            )
        counts[_EARLY] += ended.size

    moved = np.ones(frontier.size, dtype=bool)
    moved[stalled] = False
    moved[ended] = False
    frontier.hops = frontier.hops + moved
    next_vertex = batch.vertex
    if stalled.size:
        if second_order:
            previous = frontier.current.copy()
            previous[stalled] = frontier.previous[stalled]
            frontier.previous = previous
        next_vertex[stalled] = frontier.current[stalled]
        frontier.stalls = np.zeros(frontier.size, dtype=np.int64)
        frontier.stalls[stalled] = streak
    else:
        if second_order:
            frontier.previous = frontier.current
        frontier.stalls = None
    frontier.current = next_vertex
    if not ended.size:
        return moved, None, (frontier.pos, frontier.hops, next_vertex, stalled)
    gone = np.zeros(frontier.size, dtype=bool)
    gone[ended] = True
    kept = ~gone
    if stalled.size:
        # Stall indices into the record, which leaves the ended out.
        stalled = np.cumsum(kept)[stalled] - 1
    record = frontier.pos[kept], frontier.hops[kept], next_vertex[kept], stalled
    return moved, gone, record


def _teleport(
    spec: WalkSpec,
    streams: QueryStreams,
    taken: np.ndarray,
    moved: np.ndarray | None,
    counts: np.ndarray,
) -> np.ndarray | None:
    """Draw the teleport uniform of every mover whose termination
    probability at the hop it took (``taken``, its count before it) is
    above 0; returns the mask of the walkers it ends (``None``: none).
    ``moved`` masks the movers; ``None``: every walker moved.  A stalled
    walker draws nothing: its uniform belongs to the hop it has yet to
    take."""
    probability = spec.termination_probability(taken)
    if isinstance(probability, np.ndarray):
        draw = probability > 0.0
        if moved is not None:
            draw &= moved
        probability = probability[draw]
        if probability.size == 0:
            return None
    elif probability > 0.0:
        draw = moved
    else:
        return None
    leave = streams.uniforms(draw) < probability
    left = np.count_nonzero(leave)
    if not left:
        return None
    counts[_PROBABILISTIC] += left
    if draw is None:
        return leave
    gone = np.zeros(taken.size, dtype=bool)
    gone[draw] = leave
    return gone


def lane_count(walkers: int) -> int:
    """Lanes a closed run of ``walkers`` fans out to: one per usable CPU,
    each taking at least :data:`_MIN_BLOCK_WALKERS` walkers, and at
    least one."""
    return max(1, min(usable_cpus(), walkers // _MIN_BLOCK_WALKERS))


def _walk_block(
    graph: CSRGraph,
    spec: WalkSpec,
    kernel: VectorizedKernel,
    seed: int,
    tracer,
    lane: int,
    query_ids: np.ndarray,
    starts: np.ndarray,
    hops: np.ndarray,
) -> tuple[list, np.ndarray]:
    """Walk one lane's row block to its end through :func:`superstep`.

    Writes each row's hop count into ``hops`` (the block's slice of the
    run's) and returns ``(log, counts)``: the block's superstep-major hop
    log (:func:`~repro.walks.base.paths_from_step_log`) and its
    :data:`STAT_FIELDS` counters.  ``tracer`` (the run's, ``None`` when
    tracing is off) records a ``batch.superstep`` span per superstep and
    one ``batch.lane`` span for the block, all carrying ``lane``.
    """
    if tracer is not None:
        _lane_start = tracer.begin()
    frontier = Frontier.start(
        np.arange(starts.size), starts, seed_sequence_states(seed, query_ids)
    )
    counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
    log: list = []
    while frontier.size:
        if tracer is not None:
            _span_start = tracer.begin()
            _span_width = frontier.size
        pos, hop, next_vertex, stalled = superstep(graph, spec, kernel, frontier, counts)
        hops[pos] = hop
        log.append((next_vertex, stalled) if stalled.size else next_vertex)
        if tracer is not None:
            tracer.end(_span_start, "batch.superstep", lane=lane, superstep=len(log) - 1,
                       frontier=_span_width, survivors=pos.size)
    if tracer is not None:
        tracer.end(_lane_start, "batch.lane", lane=lane, walkers=starts.size,
                   supersteps=len(log))
    return log, counts


def _on_lanes(task: Callable, lanes: Sequence[tuple]) -> list:
    """``[task(*args) for args in lanes]``, lane 0 on the calling thread
    and the others at once on the lane pool; no lane outlives the call,
    not even when one raised."""
    if len(lanes) == 1:
        return [task(*lanes[0])]
    futures = [_lane_pool().submit(task, *args) for args in lanes[1:]]
    try:
        first = task(*lanes[0])
    finally:
        wait(futures)
    return [first, *(future.result() for future in futures)]


def _lane_pool() -> ThreadPoolExecutor:
    """The threads lanes 1.. of every closed run take, created on the
    first run that fans out; its threads start on demand."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, (os.cpu_count() or 1) - 1),
                                       thread_name_prefix="repro-lane")
        return _pool


def _forget_lane_pool() -> None:
    """A forked child inherits the pool but none of its threads (and maybe
    a held lock): it starts its own on first need."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_lane_pool)


class BatchEngine(PreparedEngine):
    """The vectorized engine: a prepared kernel driven by :func:`superstep`.

    ``kernel``, when given, must already be prepared for ``graph`` and
    needs nothing beyond ``sample`` — a tracer passes a timing proxy.
    """

    name = "batch"

    def __init__(
        self,
        graph: CSRGraph,
        spec: WalkSpec,
        kernel: VectorizedKernel | None = None,
    ) -> None:
        self._configure(graph, spec)
        if kernel is None:
            _, kernel = prepared_kernel(spec, graph)
        self._adopt(self._graph, kernel)

    def _adopt(self, graph: CSRGraph, kernel: VectorizedKernel) -> None:
        self._graph = graph
        self._kernel = kernel

    def _run_arrays(self, query_ids, starts, seed):
        size = starts.size
        lanes = lane_count(size)
        blocks = list(pairwise([size * lane // lanes for lane in range(lanes + 1)]))
        hops = np.zeros(size, dtype=np.int64)
        # Hoisted once per run: with tracing disabled (the default) the
        # per-superstep cost is one local ``is not None`` branch — the
        # overhead contract tests/obs/test_tracer.py counts.
        walk = partial(_walk_block, self._graph, self._spec, self._kernel, seed,
                       _active_tracer())
        walked = _on_lanes(walk, [
            (lane, query_ids[lo:hi], starts[lo:hi], hops[lo:hi])
            for lane, (lo, hi) in enumerate(blocks)
        ])
        # All hop counts in, the layout is known: each lane fills its slice.
        flat, offsets = start_path_buffer(starts, hops)
        _on_lanes(paths_from_step_log, [
            (flat[offsets[lo] : offsets[hi]], hops[lo:hi], log)
            for (lo, hi), (log, _) in zip(blocks, walked)
        ])
        return flat, offsets, sum(counts for _, counts in walked)

    def open_frontier(self, seed: int, capacity: int) -> "OpenFrontier":
        """The open form of :meth:`run` (:class:`OpenFrontier`): walkers
        of any age share its supersteps, each on its own hop count.
        Overrides :meth:`PreparedEngine.open_frontier`, whose frontier
        runs every seated walker to its end in one closed run."""
        return OpenFrontier(self, seed, capacity)


class OpenFrontier:
    """A run that stays open: walkers join and leave between supersteps.

    ``capacity`` slots, each holding one walk in a row of a ``(capacity,
    max_length + 1)`` slab.  :meth:`admit` seats walkers in free slots,
    :meth:`step` takes every live walker through the one
    :func:`superstep` — a stalled walker stays seated — and returns the
    slots whose walks ended — dangling, nothing admissible, teleport, or
    the walker's own hop count reaching ``max_length`` — and :meth:`take`
    hands a finished path out and frees its slot.  A walker carries its
    hop count and draws only from the stream state that travels with
    it, so each path, and the sum of every
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
        self._paths = np.empty((capacity, engine._spec.max_length + 1), dtype=np.int64)
        #: Each slot's hops so far: its walk is ``_paths[slot, :_hops[slot] + 1]``.
        self._hops = np.zeros(capacity, dtype=np.int64)
        #: The last step in which each slot's walker lived on: a step that
        #: ends walks marks its survivors, and every other seated slot is
        #: one that ended (no per-admission mark, no clearing pass).
        self._lived = np.zeros(capacity, dtype=np.int64)
        self._steps = 0
        #: What a newly seated walker brings: no previous vertex, no hops.
        #: Sliced, never built, at each admission; a first-order frontier's
        #: ``previous`` is a prefix of the first.
        self._unset = np.full(capacity, -1, dtype=np.int64)
        self._no_hops = np.zeros(capacity, dtype=np.int64)
        for array in (self._unset, self._no_hops):
            array.setflags(write=False)
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
        frontier = self._frontier
        frontier.pos = np.concatenate((frontier.pos, slots))
        frontier.current = np.concatenate((frontier.current, starts))
        frontier.previous = (
            np.concatenate((frontier.previous, self._unset[:count]))
            if self._engine._spec.needs_prev_vertex else self._unset[: frontier.pos.size]
        )
        frontier.state = np.concatenate((frontier.state, np.asarray(states, dtype=np.uint64)))
        frontier.hops = np.concatenate((frontier.hops, self._no_hops[:count]))
        if frontier.stalls is not None:
            frontier.stalls = np.concatenate((frontier.stalls, self._no_hops[:count]))
        return slots

    def step(self) -> np.ndarray:
        """One superstep over the live walkers; returns the slots whose
        walks ended in it; :meth:`take` each once."""
        engine, frontier = self._engine, self._frontier
        seated = frontier.pos
        pos, hop, next_vertex, _ = superstep(
            engine._graph, engine._spec, engine._kernel, frontier, self.counts
        )
        # A stalled walker rewrites the vertex it stays on.
        self._hops[pos] = hop
        self._paths[pos, hop] = next_vertex
        if frontier.size == seated.size:
            return _NO_SLOTS
        self._steps += 1
        lived = self._lived
        lived[frontier.pos] = self._steps
        return seated[lived[seated] != self._steps]

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
) -> WalkResults:
    """Execute ``queries`` under ``spec`` with frontier supersteps.

    Deterministic in ``seed`` and independent of query order; every
    path and counter equals the reference engine's (:func:`run_walks`).

    ``kernel``, when given, must already be prepared for ``graph``;
    otherwise the spec's own kernel is prepared here.  Repeated callers
    hold a :class:`BatchEngine` instead, to pay the alias-table/edge-key
    construction once.
    """
    return BatchEngine(graph, spec, kernel=kernel).run(queries, seed=seed, stats=stats)
