"""Shared engine dispatch for the example applications.

Thin printing wrapper over :mod:`repro.engines`: every example runs its
walks on one of the three engines held to the same statistical oracle —
the vectorized batch engine (default, the high-throughput software path,
one thread lane per usable CPU on large runs), the pure-Python reference
loop, or the cycle-level accelerator model.
"""

from repro.engines import (
    ENGINES as ENGINE_CHOICES,
    hops_per_second,
    run_accelerator_walks,
    run_software_walks,
)


def add_engine_arguments(parser, default: str = "batch") -> None:
    """The engine flag every example shares (--engine)."""
    parser.add_argument("--engine", choices=ENGINE_CHOICES, default=default)


def run_with_engine(engine: str, graph, spec, queries, seed: int):
    """Run the walks on the selected engine, returning WalkResults."""
    if engine == "sim":
        run = run_accelerator_walks(graph, spec, queries, seed=seed)
        print(f"accelerator: {run.metrics.summary()}")
        return run.results
    results, elapsed = run_software_walks(engine, graph, spec, queries, seed=seed)
    print(f"{engine} engine: {results.total_steps} hops in {elapsed:.3f}s "
          f"({hops_per_second(results.total_steps, elapsed):,.0f} hops/s)")
    return results
