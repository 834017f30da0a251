"""The engine protocol: what every software walk engine is.

A :class:`PreparedEngine` holds its per-graph setup (prepared sampling
kernel, worker pool, shared segments) and answers ``run(queries, seed,
stats)``.  The request and result handling around a run is the same for
every engine, so it is written once here: empty check, one
:func:`~repro.walks.base.unpack_queries`, one parent-side start-vertex
check, the engine's array hook, one :func:`record_run`, one
``WalkResults.from_flat``.  An engine is a subclass with that one hook::

    _run_arrays(query_ids, starts, seed) -> (flat, offsets, counts)

``flat[offsets[k]:offsets[k + 1]]`` is the walk of ``query_ids[k]``,
start vertex included; ``counts`` is one run's scalar counters in
:data:`STAT_FIELDS` order (also the parallel/dist workers' wire order).
Snapshot swaps share one hand-off the same way: :meth:`swap_snapshot`
resolves a ``CSRGraph`` or a dynamic ``GraphSnapshot`` to ``(graph,
prepared kernel)`` and gives it to the engine's ``_adopt``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import GraphError, WalkConfigError
from repro.graph.csr import CSRGraph
from repro.sampling.hybrid import make_walk_kernel, validate_sampler_mode
from repro.sampling.vectorized import VectorizedKernel
from repro.walks.base import Query, WalkResults, WalkSpec, unpack_queries
from repro.walks.reference import EngineStats

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


def check_batch_spec(spec: WalkSpec) -> None:
    """Reject specs the array engines cannot run faithfully.

    They apply probabilistic termination as one vectorized draw per
    superstep, so they never call the scalar
    ``terminates_probabilistically()`` hook; any spec overriding that hook
    may carry a termination rule ``termination_probability()`` does not
    express, and running it here would silently drop it.
    """
    if type(spec).terminates_probabilistically is not WalkSpec.terminates_probabilistically:
        raise WalkConfigError(
            f"{type(spec).__name__} overrides terminates_probabilistically(), which the "
            "batch engine never consults — express the rule via "
            "termination_probability() or use the reference engine"
        )


def check_start_vertices(graph: CSRGraph, starts: np.ndarray) -> None:
    """Reject a batch with a start vertex outside the graph."""
    if starts.size and (starts.min() < 0 or starts.max() >= graph.num_vertices):
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


def prepared_kernel(
    spec: WalkSpec, sampler_mode: str, snapshot
) -> tuple[CSRGraph, VectorizedKernel]:
    """``(graph, kernel ready to sample it)`` for a graph or a snapshot.

    A snapshot's sampler state replaces the kernel's ``prepare`` pass
    (alias tables, edge keys): its ``kernel_arrays`` are loaded as they
    are — built there on the first read, maintained incrementally by
    every later epoch — an empty mapping means the kernel holds no
    per-graph state, and only a plain graph is prepared from scratch.
    Engine constructors come through here too, so an engine built from
    a snapshot leaves what it read to the epochs it will swap to.
    """
    graph = snapshot_graph(snapshot)
    state = getattr(snapshot, "sampler_state", None)
    kernel = make_walk_kernel(spec.make_sampler(), sampler_mode)
    arrays = state.kernel_arrays(kernel) if state is not None else None
    if arrays is None:
        kernel.prepare(graph)
    elif arrays:
        kernel.load_state(arrays)
    return graph, kernel


class PreparedEngine:
    """A software engine with its per-graph setup already paid.

    Construction — over a ``CSRGraph`` or a dynamic ``GraphSnapshot`` —
    pays the setup once (kernel preparation, and for the
    pool engines worker start-up and shared segments); :meth:`run` does
    only per-batch work, and results are bit-identical for equal
    ``(queries, seed)`` whichever array engine runs them.  Close the
    engine — or use it as a context manager — when done.

    Subclasses declare ``name`` (the registry key) and ``options`` (the
    keyword options their constructor accepts beyond ``graph, spec``),
    call :meth:`_configure` first thing in their constructor, and
    implement :meth:`_run_arrays` and :meth:`_adopt`.  Test doubles that
    override only :meth:`run`/:meth:`close` need none of that.
    """

    #: Registry name of the engine.
    name: str
    #: Constructor options beyond ``(graph, spec)``.  ``sampler``
    #: (``"default"`` | ``"auto"``) picks the sampling backend on every
    #: engine: auto runs the cost-model-driven per-row hybrid of
    #: :mod:`repro.sampling.hybrid`.
    options: frozenset[str] = frozenset({"sampler"})
    #: Whether :meth:`run` still works after :meth:`close`.  False for
    #: engines whose ``close`` tears down worker processes.
    runs_after_close: bool = True

    def _configure(self, graph, spec: WalkSpec, sampler: str) -> None:
        """Validate and hold what the shared methods read (``graph`` is a
        ``CSRGraph`` or a ``GraphSnapshot``, as for a swap).  A method,
        not ``__init__``: test doubles subclass this with no constructor
        arguments at all."""
        check_batch_spec(spec)
        self._graph = snapshot_graph(graph)
        self._spec = spec
        self._sampler_mode = validate_sampler_mode(sampler)

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
        hand-off rather than an alias-table/edge-key rebuild.  Long-lived
        resources (worker pools and their processes) survive the swap.
        Callers must not swap while a :meth:`run` is executing; the
        serving layer applies swaps on epoch boundaries.
        """
        if type(self)._adopt is PreparedEngine._adopt:
            # Before anything reads constructor state: run/close-only
            # test doubles land here too.
            raise WalkConfigError(f"engine {self.name!r} does not support snapshot swaps")
        self._adopt(*prepared_kernel(self._spec, self._sampler_mode, snapshot))

    def _adopt(self, graph: CSRGraph, kernel: VectorizedKernel) -> None:
        """Serve ``graph`` through ``kernel`` (prepared for it) from now on."""
        raise NotImplementedError

    def close(self) -> None:
        """Release held resources (worker pools, shared memory)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
