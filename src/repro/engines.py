"""Engine registry: the one table that maps engine names to engines.

Three engines execute the same ``WalkSpec``/``Query`` workloads.  Two
run as plain software and are one class hierarchy rooted at
:class:`~repro.walks.engine.PreparedEngine` — the vectorized batch
engine (``batch``), which fans a large run out to one thread lane per
usable CPU, and the pure-Python reference loop (``reference``), which
walks one query at a time through the scalar samplers.  The third is
the cycle-level accelerator model (``sim``, :func:`run_accelerator_walks`),
whose tasks carry their query's stream through the same scalar samplers.
All three draw each query's one splitmix64 stream
(:func:`~repro.sampling.vectorized.stream_states`) in the same order, so
they walk the same paths, in the batch's order; the software engines
also agree on every ``EngineStats`` counter.

:data:`SOFTWARE_ENGINES` is the registry: ``{cls.name: cls}``.  The
protocol's shared ``run`` / ``swap_snapshot`` mean an engine is one
subclass with one array hook — so adding one is one subclass, one hook,
one row here.  :func:`prepare_engine` constructs it by name;
:func:`run_software_walks` is ``prepare -> run -> close`` with a timer
around it.  The CLI, the example applications and the serving layer all
dispatch through this module, so the engine list and the timing
methodology cannot drift between entry points, and an unknown engine
name fails loudly instead of being ignored.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.errors import WalkConfigError
from repro.graph.csr import CSRGraph
from repro.memory.spec import HBM2_U55C
from repro.obs.metrics import global_registry
from repro.obs.trace import span as _trace_span
from repro.walks import EngineStats, Query, WalkResults, WalkSpec
from repro.walks.batch import BatchEngine
from repro.walks.engine import PreparedEngine
from repro.walks.reference import ReferenceEngine

#: The engines that run as plain software (no cycle model), by name.
SOFTWARE_ENGINES: dict[str, type[PreparedEngine]] = {
    cls.name: cls for cls in (BatchEngine, ReferenceEngine)
}

#: Every engine name accepted by ``--engine`` flags.
ENGINES = ("sim", *SOFTWARE_ENGINES)


def run_software_walks(
    engine: str,
    graph: CSRGraph,
    spec: WalkSpec,
    queries: Sequence[Query],
    seed: int = 0,
    stats: EngineStats | None = None,
) -> tuple[WalkResults, float]:
    """One-shot run, returning ``(results, elapsed_seconds)``:
    :func:`prepare_engine`, one ``run``, ``close`` — every call pays the
    engine's whole setup, so repeated callers hold a prepared engine
    instead."""
    with _trace_span("engine.run", engine=engine, queries=len(queries)):
        started = time.perf_counter()
        with prepare_engine(engine, graph, spec) as prepared:
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


def prepare_engine(engine: str, graph, spec: WalkSpec) -> PreparedEngine:
    """Build a :class:`PreparedEngine` for repeated runs on one graph.

    ``graph`` is a ``CSRGraph`` or a dynamic ``GraphSnapshot``, one
    hand-off either way: the engine reads the graph's one sampler state,
    and later epochs carry what it read.  Close the engine — or use it as a context manager — when done.  Every
    entry path (one-shot runs, prepared engines, the serving layer) comes
    through here, so an unknown name fails the same way on each.
    """
    if engine not in SOFTWARE_ENGINES:
        raise WalkConfigError(
            f"unknown software engine {engine!r}; expected one of "
            f"{sorted(SOFTWARE_ENGINES)}"
        )
    with _trace_span("engine.prepare", engine=engine):
        return SOFTWARE_ENGINES[engine](graph, spec)


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
