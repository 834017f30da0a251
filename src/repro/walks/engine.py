"""The engine protocol: what every software walk engine is.

A :class:`PreparedEngine` holds its per-graph setup (the prepared
sampling kernel) and answers ``run(queries, seed, stats)``.  The request
and result handling around a run is the same for every engine, so it is
written once here: empty check, one
:func:`~repro.walks.base.unpack_queries` (a
:class:`~repro.walks.base.WalkBatch` is two arrays already; any other
``Query`` sequence is read once), one start-vertex check, the
engine's array hook, one :func:`record_run`, one
``WalkResults.from_flat``.  An engine is a subclass with that one hook::

    _run_arrays(query_ids, starts, seed) -> (flat, offsets, counts)

``flat[offsets[k]:offsets[k + 1]]`` is the walk of ``query_ids[k]``,
start vertex included; ``counts`` is one run's scalar counters in
:data:`STAT_FIELDS` order.  Snapshot swaps share one hand-off the same
way: :meth:`swap_snapshot` resolves a ``CSRGraph`` or a dynamic
``GraphSnapshot`` to ``(graph, prepared kernel)`` and gives it to the
engine's ``_adopt``; a kernel is prepared one way, ``kernel.prepare(graph)``,
which reads the arrays the graph's one
:class:`~repro.sampling.vectorized.SamplerState` holds or builds.  The serving layer steps every engine through
:meth:`PreparedEngine.open_frontier`: by default a :class:`RunFrontier`,
one closed ``run`` per step.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import GraphError, WalkConfigError
from repro.graph.csr import CSRGraph
from repro.sampling.vectorized import VectorizedKernel, make_kernel
from repro.walks.base import Query, WalkBatch, WalkResults, WalkSpec, unpack_queries

#: Scalar EngineStats counters one run accumulates, in the order of the
#: hook's ``counts`` vector.
STAT_FIELDS = (
    "sampling_proposals",
    "neighbor_reads",
    "dangling_terminations",
    "early_terminations",
    "probabilistic_terminations",
    "length_terminations",
)


@dataclass
class EngineStats:
    """Cost counters a run accumulates: the :data:`STAT_FIELDS`, hops in
    total and per query.  Every software engine counts them alike."""

    total_hops: int = 0
    sampling_proposals: int = 0
    neighbor_reads: int = 0
    early_terminations: int = 0
    dangling_terminations: int = 0
    probabilistic_terminations: int = 0
    length_terminations: int = 0
    per_query_hops: list[int] = field(default_factory=list)

    def imbalance_ratio(self) -> float:
        """max/mean of per-query hop counts (1.0 = perfectly balanced)."""
        hops = np.asarray(self.per_query_hops, dtype=np.float64)
        if hops.size == 0 or hops.mean() == 0:
            return 1.0
        return float(hops.max() / hops.mean())


def usable_cpus() -> int:
    """CPUs this process may run on, read afresh on every call.

    CPU affinity masks and container quotas make this differ from
    ``os.cpu_count()`` — a 2-CPU cgroup on a 16-core host offers 2, not
    16 — and ``taskset`` or ``sched_setaffinity`` may change it at any
    time.  The batch engine's lane count comes from here.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without affinity APIs
        return max(1, os.cpu_count() or 1)


def check_start_vertices(graph: CSRGraph, starts: np.ndarray) -> None:
    """Reject a batch with a start vertex outside the graph (int64
    ``starts``: read as unsigned, a negative one is out of range too, so
    one reduction checks both ends)."""
    if starts.size and starts.view(np.uint64).max() >= graph.num_vertices:
        bad = int(starts[(starts < 0) | (starts >= graph.num_vertices)][0])
        raise GraphError(
            f"vertex {bad} out of range for graph with {graph.num_vertices} vertices"
        )


def add_counts(stats: EngineStats, counts: np.ndarray) -> None:
    """Add a :data:`STAT_FIELDS`-ordered ``counts`` vector to ``stats``."""
    for name, value in zip(STAT_FIELDS, counts.tolist()):
        setattr(stats, name, getattr(stats, name) + value)


def record_run(stats: EngineStats | None, counts: np.ndarray, offsets: np.ndarray) -> None:
    """Fold one run's ``counts`` vector and per-query hops into ``stats``."""
    if stats is None:
        return
    add_counts(stats, counts)
    hops = np.diff(offsets) - 1
    stats.total_hops += int(hops.sum())
    stats.per_query_hops.extend(hops.tolist())


def run_arrays(
    graph: CSRGraph,
    hook: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]],
    query_ids: np.ndarray,
    starts: np.ndarray,
    seed: int,
    stats: EngineStats | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Checked array run: validate ``starts``, call ``hook(query_ids,
    starts, seed)``, fold its counters into ``stats``; returns ``(flat,
    offsets)``."""
    check_start_vertices(graph, starts)
    flat, offsets, counts = hook(query_ids, starts, seed)
    record_run(stats, counts, offsets)
    return flat, offsets


def snapshot_graph(snapshot) -> CSRGraph:
    """The CSR of a swap target (a ``CSRGraph`` or a ``GraphSnapshot``).

    Duck-typed on the :class:`~repro.dynamic.graph.GraphSnapshot` shape so
    the engines do not import the dynamic subsystem (which imports them).
    """
    graph = getattr(snapshot, "graph", snapshot)
    if not isinstance(graph, CSRGraph):
        raise WalkConfigError(
            f"cannot swap to {type(snapshot).__name__}; expected a CSRGraph "
            "or a dynamic GraphSnapshot"
        )
    return graph


def prepared_kernel(spec: WalkSpec, snapshot) -> tuple[CSRGraph, VectorizedKernel]:
    """``(graph, kernel prepared for it)`` for a graph or a snapshot.

    ``prepare`` reads the graph's one sampler state, so a snapshot and
    its ``graph`` are the same hand-off: what a snapshot's epoch carried
    from the one before is read as it is, and what nobody read yet is
    built once, for every later reader and epoch.
    """
    graph = snapshot_graph(snapshot)
    kernel = make_kernel(spec.make_sampler())
    kernel.prepare(graph)
    return graph, kernel


class PreparedEngine:
    """A software engine with its per-graph setup already paid.

    Construction — over a ``CSRGraph`` or a dynamic ``GraphSnapshot`` —
    pays the setup once (kernel preparation); :meth:`run` does only
    per-batch work, and results are bit-identical for equal ``(queries,
    seed)`` whatever the lane count.  Close the engine — or use it as a
    context manager — when done; every engine runs again after
    ``close``.

    Subclasses declare ``name`` (the registry key), call
    :meth:`_configure` first thing in their constructor, and
    implement :meth:`_run_arrays` and :meth:`_adopt`.  Test doubles that
    override only :meth:`run`/:meth:`close` need none of that.
    """

    #: Registry name of the engine.
    name: str

    def _configure(self, graph, spec: WalkSpec) -> None:
        """Hold what the shared methods read (``graph`` is a ``CSRGraph``
        or a ``GraphSnapshot``, as for a swap); every engine, the scalar
        reference loop too, is configured here.  A method, not
        ``__init__``: test doubles subclass this with no constructor
        arguments at all."""
        self._graph = snapshot_graph(graph)
        self._spec = spec

    def run(
        self,
        queries: Sequence[Query],
        seed: int = 0,
        stats: EngineStats | None = None,
    ) -> WalkResults:
        """Execute one batch against the prepared state."""
        if len(queries) == 0:
            return WalkResults()
        query_ids, starts = unpack_queries(queries)
        return WalkResults.from_flat(
            *run_arrays(self._graph, self._run_arrays, query_ids, starts, seed, stats)
        )

    def _run_arrays(
        self, query_ids: np.ndarray, starts: np.ndarray, seed: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The engine's one hook: walk aligned id/start arrays (already
        validated, never empty) and return ``(flat, offsets, counts)``."""
        raise NotImplementedError(f"engine {self.name!r} defines no array hook")

    def swap_snapshot(self, snapshot) -> None:
        """Repoint this prepared engine at a new graph version.

        ``snapshot`` is either a plain :class:`CSRGraph` or a dynamic
        :class:`~repro.dynamic.graph.GraphSnapshot` (see
        :func:`prepared_kernel`), so a snapshot swap costs a state
        hand-off rather than an alias-table/edge-set rebuild.  Callers
        must not swap while a :meth:`run` is executing.
        """
        if type(self)._adopt is PreparedEngine._adopt:
            # Before anything reads constructor state: run/close-only
            # test doubles land here too.
            raise WalkConfigError(f"engine {self.name!r} does not support snapshot swaps")
        self._adopt(*prepared_kernel(self._spec, snapshot))

    def _adopt(self, graph: CSRGraph, kernel: VectorizedKernel) -> None:
        """Serve ``graph`` through ``kernel`` (prepared for it) from now on."""
        raise NotImplementedError

    def open_frontier(self, seed: int, capacity: int) -> "RunFrontier":
        """The open form of :meth:`run`, as the serving layer steps it: a
        :class:`RunFrontier` whose every step is one closed :meth:`run`.
        ``BatchEngine`` overrides it with a frontier whose walkers share
        supersteps."""
        return RunFrontier(self, seed, capacity)

    def close(self) -> None:
        """Release held resources; the engines here hold none past a run."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RunFrontier:
    """The open-frontier interface over an engine's :meth:`~PreparedEngine.run`.

    ``capacity`` slots.  :meth:`admit` seats aligned ``(query_id, start)``
    arrays as one :class:`~repro.walks.base.WalkBatch`; :meth:`step` walks
    every seated walker to its end in one ``run(seated, seed)`` and returns
    all their slots; :meth:`take` hands a
    finished path out and frees its slot.  ``run`` derives each query's
    stream from ``(seed, query_id)``, so a path equals the one a closed run
    of any other company gives it, and :attr:`counts` sums the
    :data:`STAT_FIELDS` counters of every run made here.
    """

    def __init__(self, engine: PreparedEngine, seed: int, capacity: int) -> None:
        if capacity < 1:
            raise WalkConfigError(f"capacity must be >= 1, got {capacity}")
        self._engine = engine
        self._seed = seed
        self.capacity = capacity
        #: Running :data:`STAT_FIELDS` counters of every run made here.
        self.counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
        self.abandon()

    @property
    def live(self) -> int:
        """Walkers the next :meth:`step` will run."""
        return sum(len(batch) for _, batch in self._seated)

    @property
    def free(self) -> int:
        """Slots :meth:`admit` can fill (ended walks hold theirs until taken)."""
        return len(self._free)

    def admit(self, query_ids, starts, states=None) -> np.ndarray:
        """Seat one walker per aligned ``(query_id, start)``; returns their
        slots.  ``states`` is ignored: ``run`` derives every stream itself."""
        count = len(starts)
        if count > len(self._free) or len(query_ids) != count:
            raise WalkConfigError(
                f"cannot admit {len(query_ids)} ids and {count} starts "
                f"into {len(self._free)} free slots"
            )
        batch = WalkBatch(query_ids, starts)
        slots = np.array([self._free.pop() for _ in range(count)], dtype=np.int64)
        self._seated.append((slots, batch))
        return slots

    def step(self) -> np.ndarray:
        """One run over the seated walkers; every seated slot ends in it."""
        if not self._seated:
            return np.empty(0, dtype=np.int64)
        slots = np.concatenate([slots for slots, _ in self._seated])
        batch = WalkBatch(np.concatenate([batch.ids for _, batch in self._seated]),
                          np.concatenate([batch.starts for _, batch in self._seated]))
        stats = EngineStats()
        results = self._engine.run(batch, self._seed, stats)
        self.counts += [getattr(stats, name) for name in STAT_FIELDS]
        self._seated = []
        self._ended.update((slot, results.owned_path(k)) for k, slot in enumerate(slots.tolist()))
        return slots

    def take(self, slot: int) -> np.ndarray:
        """The finished walk of ``slot`` (start vertex included), owning its
        memory; the slot is free again."""
        path = self._ended.pop(slot)
        self._free.append(slot)
        return path

    def abandon(self) -> None:
        """Drop every walker, seated or ended and untaken: all slots free."""
        #: ``(slots, batch)`` per :meth:`admit` since the last step.
        self._seated: list[tuple[np.ndarray, WalkBatch]] = []
        self._ended: dict[int, np.ndarray] = {}
        self._free = list(range(self.capacity - 1, -1, -1))
