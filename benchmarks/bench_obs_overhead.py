"""Observability overhead benchmark: the pay-for-what-you-use gate.

The tracer's design contract (``src/repro/obs/trace.py``) is that
instrumented-but-disabled code costs one hoisted ``active()`` call per
run plus one local ``is not None`` branch per superstep.  This
benchmark measures that claim on the acceptance workload — DeepWalk on
an RMAT-16 graph through the vectorized batch engine — across three
configurations, interleaved round-robin so clock drift and cache state
hit all three equally:

* **baseline** — the instrumented engine with the tracer lookup
  short-circuited to ``None`` at module level: the closest runnable
  stand-in for the uninstrumented engine (the hoisted lookup never
  touches the tracer singleton);
* **disabled** — the shipped default: tracing off, ``active()``
  consulted once per run (what every user who never enables tracing
  pays);
* **enabled** — tracing on with a ring large enough to hold every
  superstep span (what a traced run pays; advisory, not gated).

Full runs **gate** ``best(disabled) >= (1 - tolerance) *
best(baseline)`` over the interleaved repetitions, with a 2% tolerance
— instrumentation whose disabled path is measurably slower than
baseline does not ship.  Best-of-N, not median: shared-host noise is
one-sided (interference only slows runs down), so the max converges to
each configuration's true capability.  The enabled
ratio is recorded but never gated (tracing is opt-in).  Every run,
gated or smoke, additionally asserts the no-effect contract: paths and
``EngineStats`` with tracing enabled are bit-identical to disabled.

The machine-readable ``BENCH_obs.json`` (hops/sec per configuration,
overhead ratios, gate status) is committed alongside code changes so
the overhead trajectory lives in version control.

Run:  PYTHONPATH=src python benchmarks/bench_obs_overhead.py          # acceptance run
      PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke  # fast CI gate
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

import repro.walks.batch as batch_module
from repro.bench.reporting import resolve_bench_json_path, write_bench_json
from repro.bench.workloads import make_spec
from repro.engines import hops_per_second
from repro.graph import rmat
from repro.obs.trace import get_tracer, tracing
from repro.sampling.vectorized import make_kernel
from repro.walks import EngineStats, make_queries
from repro.walks.batch import run_walks_batch_arrays

CONFIGS = ("baseline", "disabled", "enabled")


def _run_once(graph, spec, kernel, starts, query_ids, seed):
    """One timed engine run; returns (paths, hops, stats, seconds)."""
    stats = EngineStats()
    started = time.perf_counter()
    paths, hops = run_walks_batch_arrays(
        graph, spec, kernel, starts, query_ids, seed=seed, stats=stats
    )
    return paths, hops, stats, time.perf_counter() - started


def _measure(config, graph, spec, kernel, starts, query_ids, seed, capacity):
    """Run one configuration once and return (rate, paths, hops, stats)."""
    if config == "baseline":
        # Short-circuit the hoisted lookup: the engine never touches the
        # tracer singleton, approximating the uninstrumented code path.
        saved = batch_module._active_tracer
        batch_module._active_tracer = lambda: None
        try:
            paths, hops, stats, seconds = _run_once(
                graph, spec, kernel, starts, query_ids, seed
            )
        finally:
            batch_module._active_tracer = saved
    elif config == "disabled":
        paths, hops, stats, seconds = _run_once(
            graph, spec, kernel, starts, query_ids, seed
        )
    else:
        with tracing(capacity):
            paths, hops, stats, seconds = _run_once(
                graph, spec, kernel, starts, query_ids, seed
            )
    return hops_per_second(stats.total_hops, seconds), paths, hops, stats


def _paths_equal(a_paths, a_hops, b_paths, b_hops) -> bool:
    """Per-walk prefix comparison: the buffer beyond each walk's last hop
    is uninitialized padding, so only
    ``paths[row, :hops[row] + 1]`` is meaningful."""
    if not np.array_equal(a_hops, b_hops):
        return False
    valid = np.arange(a_paths.shape[1])[None, :] <= a_hops[:, None]
    return np.array_equal(a_paths[valid], b_paths[valid])


def _stats_tuple(stats: EngineStats) -> tuple:
    return (
        stats.total_hops,
        stats.sampling_proposals,
        stats.neighbor_reads,
        stats.early_terminations,
        stats.dangling_terminations,
        stats.probabilistic_terminations,
        stats.length_terminations,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=16,
                        help="RMAT scale (2**scale vertices; acceptance "
                        "default 16)")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--queries", type=int, default=20_000)
    parser.add_argument("--length", type=int, default=80)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=9,
                        help="interleaved repetitions per configuration; the "
                        "gate compares best-of-N rates")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed fractional slowdown of the disabled "
                        "path vs baseline (ISSUE gate: 0.02)")
    parser.add_argument("--capacity", type=int, default=65_536,
                        help="tracer ring capacity for the enabled runs")
    parser.add_argument("--json", default=None,
                        help="machine-readable output path; defaults to "
                        "benchmarks/BENCH_obs.json for full runs and off for "
                        "--smoke; '' disables")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: tiny RMAT-10 workload, overhead gate "
                        "advisory (wall-clock noise at that size), hard "
                        "bit-identity assertion")
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale = min(args.scale, 10)
        args.edge_factor = min(args.edge_factor, 8)
        args.queries = min(args.queries, 1_000)
        args.length = min(args.length, 20)
        args.reps = min(args.reps, 3)
    args.json = resolve_bench_json_path(args.json, args.smoke, __file__,
                                        "BENCH_obs.json")

    graph = rmat(args.scale, edge_factor=args.edge_factor, seed=args.seed)
    spec = make_spec("DeepWalk")
    spec.max_length = args.length
    kernel = make_kernel(spec.make_sampler())
    kernel.prepare(graph)
    queries = make_queries(graph, args.queries, seed=args.seed + 1)
    query_ids = np.fromiter((q.query_id for q in queries), np.int64,
                            len(queries))
    starts = np.fromiter((q.start_vertex for q in queries), np.int64,
                         len(queries))

    print(f"graph: {graph}")
    print(f"workload: DeepWalk, {args.queries} queries, length {args.length}, "
          f"batch engine, {args.reps} interleaved reps per configuration")

    # Warmup (kernel caches, page faults) outside the timed section.
    _run_once(graph, spec, kernel, starts, query_ids, args.seed + 2)

    rates: dict[str, list[float]] = {config: [] for config in CONFIGS}
    reference: dict[str, tuple] = {}
    identical = True
    for rep in range(args.reps):
        for config in CONFIGS:
            get_tracer().clear()
            rate, paths, hops, stats = _measure(
                config, graph, spec, kernel, starts, query_ids,
                args.seed + 2, args.capacity,
            )
            rates[config].append(rate)
            # The no-effect contract: every configuration produces the
            # same walks.  Compare everything against the first run.
            if "paths" not in reference:
                reference["paths"] = (paths, hops, _stats_tuple(stats))
            else:
                ref_paths, ref_hops, ref_stats = reference["paths"]
                if not (_paths_equal(paths, hops, ref_paths, ref_hops)
                        and _stats_tuple(stats) == ref_stats):
                    identical = False

    # Gate on best-of-N: throughput noise on a shared host is one-sided
    # (interference only slows runs down), so the max rate converges to
    # the configuration's true capability while the median keeps a
    # sizeable noise floor — the disabled path does strictly less work
    # than the enabled one, and medians here routinely order them
    # backwards.  Medians are still reported and recorded.
    medians = {config: statistics.median(rates[config]) for config in CONFIGS}
    bests = {config: max(rates[config]) for config in CONFIGS}
    disabled_ratio = bests["disabled"] / bests["baseline"]
    enabled_ratio = bests["enabled"] / bests["baseline"]
    spans = len(get_tracer())
    for config in CONFIGS:
        print(f"{config:<9s} best {bests[config]:>12,.0f} hops/s "
              f"(median {medians[config]:,.0f}, min {min(rates[config]):,.0f})")
    print(f"disabled/baseline: {disabled_ratio:.4f} "
          f"(gate: >= {1 - args.tolerance:.2f})")
    print(f"enabled/baseline:  {enabled_ratio:.4f} (advisory; "
          f"{spans} spans buffered on the last traced run, "
          f"{get_tracer().dropped} dropped)")

    gated = not args.smoke
    if args.json:
        write_bench_json(args.json, {
            "benchmark": "obs_overhead",
            "workload": {
                "graph": f"rmat-{args.scale}",
                "edge_factor": args.edge_factor,
                "algorithm": "DeepWalk",
                "queries": args.queries,
                "length": args.length,
                "engine": "batch",
                "reps": args.reps,
                "smoke": args.smoke,
            },
            "hops_per_sec": {
                config: round(bests[config]) for config in CONFIGS
            },
            "hops_per_sec_median": {
                config: round(medians[config]) for config in CONFIGS
            },
            "disabled_over_baseline": round(disabled_ratio, 4),
            "enabled_over_baseline": round(enabled_ratio, 4),
            "bit_identical": identical,
            "gate": {
                "tolerance": args.tolerance,
                "enforced": gated,
                "status": "gated" if gated else "advisory",
            },
        })
        print(f"wrote {args.json}")

    if not identical:
        print("FAIL: traced runs are not bit-identical to untraced runs "
              "(paths, hops or EngineStats diverged)", file=sys.stderr)
        return 1
    if not gated:
        print(f"PASS (advisory: smoke; overhead gate not enforced, measured "
              f"{disabled_ratio:.4f})")
        return 0
    if disabled_ratio < 1 - args.tolerance:
        print(f"FAIL: instrumented-but-disabled throughput is "
              f"{(1 - disabled_ratio) * 100:.1f}% below baseline "
              f"(gate: <= {args.tolerance * 100:.0f}%)", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
