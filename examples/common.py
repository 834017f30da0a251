"""Shared engine dispatch for the example applications.

Thin printing wrapper over :mod:`repro.engines`: every example runs its
walks on one of the five engines held to the same statistical oracle —
the vectorized batch engine (default, the high-throughput software
path), the sharded multicore parallel engine (``--engine parallel
[--workers N]``), the distributed engine, the pure-Python reference
loop, or the cycle-level accelerator model.
"""

from repro.engines import (
    ENGINES as ENGINE_CHOICES,
    hops_per_second,
    run_accelerator_walks,
    run_software_walks,
)


def add_engine_arguments(parser, default: str = "batch") -> None:
    """The engine flags every example shares (--engine, --workers)."""
    parser.add_argument("--engine", choices=ENGINE_CHOICES, default=default)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (parallel engine only; "
                        "default: all cores)")


def run_with_engine(engine: str, graph, spec, queries, seed: int, workers=None):
    """Run the walks on the selected engine, returning WalkResults."""
    if workers is not None and engine != "parallel":
        # Same contract as the CLI and the registry: a misdirected option
        # fails loudly instead of being silently ignored.
        raise SystemExit("error: --workers only applies to the parallel engine")
    if engine == "sim":
        run = run_accelerator_walks(graph, spec, queries, seed=seed)
        print(f"accelerator: {run.metrics.summary()}")
        return run.results
    results, elapsed = run_software_walks(
        engine, graph, spec, queries, seed=seed, workers=workers,
    )
    print(f"{engine} engine: {results.total_steps} hops in {elapsed:.3f}s "
          f"({hops_per_second(results.total_steps, elapsed):,.0f} hops/s)")
    return results
