"""Engine registry: the one table that maps engine names to engines.

Six engines execute the same ``WalkSpec``/``Query`` workloads and are
held to the same statistical oracle.  Five run as plain software and are
one class hierarchy rooted at :class:`~repro.walks.engine.PreparedEngine`
— the vectorized batch engine (``batch``), the numba-compiled
fused-kernel engine (``jit``), the sharded multicore engine
(``parallel``), the distributed shard-routed engine (``dist``) and the
pure-Python reference loop (``reference``); the sixth is the cycle-level
accelerator model (``sim``, :func:`run_accelerator_walks`).

:data:`SOFTWARE_ENGINES` is the registry: ``{cls.name: cls}``.  Each
class declares the keyword options its constructor accepts
(``cls.options``), and the protocol's shared ``run`` / ``swap_snapshot``
mean an engine is one subclass with one array hook — so adding one is
one subclass, one hook, one row here.  :func:`prepare_engine` validates
options against the class and constructs it; :func:`run_software_walks`
is ``prepare -> run -> close`` with a timer around it.  The CLI, the
example applications and the serving layer all dispatch through this
module, so the engine list, each engine's option surface and the timing
methodology cannot drift between entry points, and a typo or a flag
aimed at the wrong engine fails loudly instead of being ignored.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.dist import DistWalkEngine
from repro.errors import WalkConfigError
from repro.graph.csr import CSRGraph
from repro.memory.spec import HBM2_U55C
from repro.obs.metrics import global_registry
from repro.obs.trace import span as _trace_span
from repro.parallel import ParallelWalkEngine, validate_worker_backend
from repro.sampling.hybrid import validate_sampler_mode
from repro.walks import EngineStats, Query, WalkResults, WalkSpec, run_walks
from repro.walks.batch import BatchEngine
from repro.walks.engine import PreparedEngine, snapshot_graph
from repro.walks.jit import JitEngine


class ReferenceEngine(PreparedEngine):
    """The scalar reference loop: nothing to amortize and no array hook
    (it is the oracle the array engines are tested against), so it
    overrides the protocol's two entry points whole."""

    name = "reference"

    def __init__(self, graph, spec: WalkSpec, sampler: str = "default") -> None:
        # Not _configure: that rejects specs only this engine runs.
        self._graph = snapshot_graph(graph)
        self._spec = spec
        self._sampler_mode = validate_sampler_mode(sampler)

    def run(self, queries, seed=0, stats=None):
        return run_walks(self._graph, self._spec, queries, seed=seed, stats=stats,
                         sampler=self._sampler_mode)

    def swap_snapshot(self, snapshot) -> None:
        # The scalar samplers re-prepare per run; only the graph swaps.
        self._graph = snapshot_graph(snapshot)


#: The engines that run as plain software (no cycle model), by name.
SOFTWARE_ENGINES: dict[str, type[PreparedEngine]] = {
    cls.name: cls
    for cls in (BatchEngine, JitEngine, ParallelWalkEngine, DistWalkEngine, ReferenceEngine)
}

#: Every engine name accepted by ``--engine`` flags.
ENGINES = ("sim", *SOFTWARE_ENGINES)

#: Keyword options each software engine accepts beyond the shared
#: ``(graph, spec)`` — a view of each class's ``options``.
ENGINE_OPTIONS: dict[str, frozenset[str]] = {
    name: cls.options for name, cls in SOFTWARE_ENGINES.items()
}


def _validate_engine_options(engine: str, options: dict) -> dict:
    """Drop ``None``-valued options and reject ones ``engine`` lacks.

    This is the one shared validation point for every entry path
    (one-shot runs, prepared engines, the serving layer): option *names*
    are checked against the engine's declared set, and the ``sampler``
    option's *value* is checked against :data:`SAMPLER_MODES` so a typo
    fails here, naming the valid choices, instead of deep inside a
    kernel factory (or, worse, inside a worker process).
    """
    if engine not in SOFTWARE_ENGINES:
        raise WalkConfigError(
            f"unknown software engine {engine!r}; expected one of "
            f"{sorted(SOFTWARE_ENGINES)}"
        )
    options = {name: value for name, value in options.items() if value is not None}
    accepted = SOFTWARE_ENGINES[engine].options
    unknown = set(options) - accepted
    if unknown:
        raise WalkConfigError(
            f"engine {engine!r} does not accept option(s) "
            f"{', '.join(sorted(unknown))}; it accepts "
            f"{sorted(accepted) or 'no options'}"
        )
    if "sampler" in options:
        validate_sampler_mode(options["sampler"])
    if "backend" in options:
        validate_worker_backend(options["backend"])
    return options


def run_software_walks(
    engine: str,
    graph: CSRGraph,
    spec: WalkSpec,
    queries: Sequence[Query],
    seed: int = 0,
    stats: EngineStats | None = None,
    **options,
) -> tuple[WalkResults, float]:
    """One-shot run, returning ``(results, elapsed_seconds)``:
    :func:`prepare_engine` with ``options``, one ``run``, ``close`` —
    every call pays the engine's whole setup, so repeated callers hold a
    prepared engine instead."""
    with _trace_span("engine.run", engine=engine, queries=len(queries)):
        started = time.perf_counter()
        with prepare_engine(engine, graph, spec, **options) as prepared:
            results = prepared.run(queries, seed=seed, stats=stats)
        elapsed = time.perf_counter() - started
    _record_run_metrics(engine, results, elapsed)
    return results, elapsed


def _record_run_metrics(engine: str, results: WalkResults, elapsed: float) -> None:
    """Feed per-run counters into the global metrics registry.

    Once per *run*, never per hop, so the always-on cost is a few dict
    operations; ``repro metrics`` renders the accumulated registry after
    a wrapped command finishes.
    """
    registry = global_registry()
    registry.counter(
        "repro_engine_runs_total", "One-shot software engine runs",
    ).inc(1, engine=engine)
    registry.counter(
        "repro_engine_run_seconds_total", "Wall-clock summed over one-shot runs",
    ).inc(elapsed, engine=engine)
    registry.counter(
        "repro_engine_run_hops_total", "Hops executed by one-shot runs",
    ).inc(results.total_steps, engine=engine)


def prepare_engine(
    engine: str, graph, spec: WalkSpec, **options
) -> PreparedEngine:
    """Build a :class:`PreparedEngine` for repeated runs on one graph.

    ``graph`` is a ``CSRGraph`` or a dynamic ``GraphSnapshot``.  Given the
    snapshot, the engine reads its prepared state (built there, once) and
    every later ``swap_snapshot`` inherits it; given ``snapshot.graph``,
    the engine prepares privately and the first swap builds it again.
    ``options`` carries engine-specific settings (``workers=N`` for the
    parallel engine); ``None``-valued options mean "engine default" and
    are dropped, options the engine does not declare are rejected.  Close
    the engine — or use it as a context manager — when done; the pool
    engines own worker processes and shared-memory segments.
    """
    options = _validate_engine_options(engine, options)
    with _trace_span("engine.prepare", engine=engine):
        return SOFTWARE_ENGINES[engine](graph, spec, **options)


def run_accelerator_walks(
    graph: CSRGraph,
    spec: WalkSpec,
    queries: Sequence[Query],
    seed: int = 0,
    num_pipelines: int = 4,
    memory=HBM2_U55C,
):
    """Run the cycle-level accelerator model; returns its ``RunOutcome``
    (``.results`` + ``.metrics``)."""
    config = RidgeWalkerConfig(num_pipelines=num_pipelines, memory=memory)
    return RidgeWalker(graph, spec, config, seed=seed).run(queries)


def hops_per_second(hops: int, elapsed: float) -> float:
    """Throughput with a zero-duration guard (tiny workloads)."""
    return hops / elapsed if elapsed > 0 else float("inf")
