"""Throughput benchmark: vectorized batch engine vs the reference loop.

Runs the same workload — by default 10k DeepWalk queries of length 80 on
an RMAT graph — through :func:`repro.walks.batch.run_walks_batch` and
:func:`repro.walks.reference.run_walks`, reports hops/sec for both, and
exits non-zero when the batch engine fails the required speedup (1x in
``--smoke`` mode, used by ``scripts/check.sh``; pass ``--min-speedup``
to raise the bar).

The reference engine is measured on a query subsample (it is the
bottleneck being replaced; its per-hop cost is flat in the query count)
and compared on hops/sec, so the full acceptance run stays minutes, not
hours.

Run:  PYTHONPATH=src python benchmarks/bench_batch_engine.py            # RMAT-18 acceptance run
      PYTHONPATH=src python benchmarks/bench_batch_engine.py --smoke    # fast CI gate
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.reporting import resolve_bench_json_path, write_bench_json
from repro.bench.workloads import RMAT_BENCH_ALGORITHMS, make_spec
from repro.engines import hops_per_second, run_software_walks
from repro.graph import rmat
from repro.walks import EngineStats, make_queries
from repro.walks.engine import usable_cpus


def measure(engine, graph, spec, queries, seed):
    """Run one engine once, returning (hops, seconds, hops/sec)."""
    stats = EngineStats()
    _, elapsed = run_software_walks(engine, graph, spec, queries, seed=seed, stats=stats)
    return stats.total_hops, elapsed, hops_per_second(stats.total_hops, elapsed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=18,
                        help="RMAT scale (2**scale vertices; paper's SC18 default)")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--queries", type=int, default=10_000)
    parser.add_argument("--ref-queries", type=int, default=1_000,
                        help="reference-engine subsample (hops/sec is flat in it)")
    parser.add_argument("--length", type=int, default=80)
    parser.add_argument("--algorithm", choices=RMAT_BENCH_ALGORITHMS, default="DeepWalk")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="fail when batch/reference hops-per-sec falls below this")
    parser.add_argument("--json", default=None,
                        help="machine-readable output path; defaults to "
                        "benchmarks/BENCH_batch.json for full runs and off for "
                        "--smoke (so CI smokes don't overwrite the acceptance "
                        "record); '' disables")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: RMAT-14, small reference subsample, "
                        "require only that batch is faster at all")
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale = min(args.scale, 14)
        args.edge_factor = min(args.edge_factor, 8)
        args.ref_queries = min(args.ref_queries, 300)
        args.min_speedup = 1.0
    args.json = resolve_bench_json_path(args.json, args.smoke, __file__,
                                        "BENCH_batch.json")

    graph = rmat(args.scale, edge_factor=args.edge_factor, seed=args.seed)
    spec = make_spec(args.algorithm)
    spec.max_length = args.length
    queries = make_queries(graph, args.queries, seed=args.seed + 1)
    print(f"graph: {graph}")
    print(f"workload: {args.algorithm}, {args.queries} queries, length {args.length}")

    batch_hops, batch_s, batch_rate = measure("batch", graph, spec, queries, args.seed + 2)
    print(f"batch:     {batch_hops:>10d} hops  {batch_s:8.3f}s  {batch_rate:>12,.0f} hops/s")

    ref_queries = queries[: args.ref_queries]
    ref_hops, ref_s, ref_rate = measure("reference", graph, spec, ref_queries, args.seed + 2)
    print(f"reference: {ref_hops:>10d} hops  {ref_s:8.3f}s  {ref_rate:>12,.0f} hops/s"
          f"  ({len(ref_queries)} query subsample)")

    speedup = batch_rate / ref_rate
    print(f"speedup:   {speedup:.1f}x (required: {args.min_speedup:.1f}x)")

    if args.json:
        write_bench_json(args.json, {
            "benchmark": "batch_engine",
            "workload": {
                "algorithm": args.algorithm,
                "graph": f"rmat-{args.scale}",
                "edge_factor": args.edge_factor,
                "queries": args.queries,
                "length": args.length,
                "smoke": args.smoke,
            },
            "host_cores": usable_cpus(),  # affinity-aware available cores
            "hops_per_sec": {
                "batch": round(batch_rate),
                "reference": round(ref_rate),
            },
            "total_hops": batch_hops,
            "speedup_vs_reference": round(speedup, 3),
        })
        print(f"wrote {args.json}")

    if speedup < args.min_speedup:
        print("FAIL: batch engine below required speedup", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
