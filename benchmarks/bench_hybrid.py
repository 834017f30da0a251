"""Hybrid-sampler benchmark: auto mode vs every fixed strategy.

The acceptance workload is Node2Vec (paper ``p=2, q=0.5``) on a *skewed*
RMAT-16 graph (Graph500 initiator): the degree distribution that makes
fixed-strategy choices hurt.  Two fixed engines run the same workload —
**rejection** (O(1) proposals, retry rounds) and **reservoir** (exact
O(d) scan, disastrous on hubs) — plus the **auto** engine, whose cost
model assigns each vertex row a strategy at prepare time
(:mod:`repro.sampling.hybrid`).

Gates (full runs; ``--smoke`` keeps the conformance assertions but skips
the timing gates, which are noise at smoke sizes):

* auto >= ``--min-worst-ratio`` (default 1.3x) the *worst* fixed engine,
* auto >= ``--min-best-ratio`` (default 1.0x) the *best* fixed engine —
  adaptivity must be free, not a tax.

Always asserted, at any size:

* a forced all-rejection selection map is **bit-identical** to the
  standalone rejection kernel (fixed-map conformance);
* auto paths are bit-identical across **batch**, **parallel** (2
  workers) and **serve-replay** (micro-batched service vs offline
  oracle);
* auto survives a **dynamic sliding-window** run: an engine swapped
  across snapshots equals a fresh auto engine on a from-scratch build.

Run:  PYTHONPATH=src python benchmarks/bench_hybrid.py          # acceptance run
      PYTHONPATH=src python benchmarks/bench_hybrid.py --smoke  # fast CI gate
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

import numpy as np

from repro.bench.reporting import resolve_bench_json_path, write_bench_json
from repro.engines import prepare_engine
from repro.graph import rmat
from repro.graph.generators import GRAPH500_INITIATOR
from repro.parallel import default_workers
from repro.sampling.hybrid import HybridKernel, STRATEGY_REJECTION, make_walk_kernel
from repro.sampling.vectorized import RejectionKernel
from repro.walks import EngineStats, Node2VecSpec, make_queries
from repro.walks.batch import run_walks_batch


def measure_rates(graph, cells, seed, reps):
    """Best-of-``reps`` hops/s per engine cell, reps *interleaved* across
    cells (round-robin) so host-load drift penalizes every engine
    equally instead of whichever ran last.  One untimed warmup run per
    cell first.  ``cells`` maps name -> (spec, queries, kernel)."""
    rates = {name: 0.0 for name in cells}
    for name, (spec, queries, kernel) in cells.items():
        run_walks_batch(graph, spec, queries[: max(1, len(queries) // 10)],
                        seed=seed, kernel=kernel)
    for _ in range(reps):
        for name, (spec, queries, kernel) in cells.items():
            stats = EngineStats()
            started = time.perf_counter()
            run_walks_batch(graph, spec, queries, seed=seed, stats=stats,
                            kernel=kernel)
            elapsed = time.perf_counter() - started
            if elapsed > 0:
                rates[name] = max(rates[name], stats.total_hops / elapsed)
    return rates


def paths_equal(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def check_fixed_map_conformance(graph, spec, queries, seed):
    """Forced all-rejection hybrid == standalone rejection kernel, bit for bit."""
    forced = np.full(graph.num_vertices, STRATEGY_REJECTION, dtype=np.int8)
    hybrid = HybridKernel(spec.make_sampler(), selection=forced)
    hybrid.prepare(graph)
    single = RejectionKernel(p=spec.p, q=spec.q)
    single.prepare(graph)
    a = run_walks_batch(graph, spec, queries, seed=seed, kernel=hybrid)
    b = run_walks_batch(graph, spec, queries, seed=seed, kernel=single)
    return paths_equal(a.paths, b.paths)


def check_cross_engine_conformance(graph, spec, queries, seed):
    """Auto paths across batch / parallel / serve-replay, bit for bit."""
    from repro.serve import ServeConfig, WalkService, replay_paths

    batch = run_walks_batch(graph, spec, queries, seed=seed, sampler="auto")
    with prepare_engine("parallel", graph, spec, workers=2,
                        sampler="auto") as parallel:
        par = parallel.run(queries, seed=seed)
    if not paths_equal(batch.paths, par.paths):
        return False

    sub = queries[:200]
    oracle = replay_paths(graph, spec,
                          {q.query_id: q.start_vertex for q in sub}, seed=seed)

    async def _serve():
        config = ServeConfig(max_batch=64, max_wait_ms=20.0,
                             queue_depth=4 * len(sub))
        served = {}
        async with WalkService(graph, spec, engine="batch", seed=seed,
                               config=config) as service:
            futures = {
                q.query_id: service.try_submit(q.start_vertex, query_id=q.query_id)
                for q in sub
            }
            for query_id, future in futures.items():
                served[query_id] = (await future).path_of(0)
        return served

    served = asyncio.run(_serve())
    return all(np.array_equal(served[q.query_id], oracle[q.query_id])
               for q in sub)


def check_dynamic_window_conformance(seed):
    """Auto engine swapped across a sliding-window trace == fresh builds."""
    from repro.dynamic import apply_batch, make_trace
    from repro.dynamic.bench import fresh_static_build

    trace = make_trace("window", 9, edge_factor=6, batch_size=200,
                       num_batches=4, seed=seed, weighted=True)
    dynamic = trace.build_dynamic()
    from repro.walks import DeepWalkSpec

    spec = DeepWalkSpec(max_length=20)
    snapshot = dynamic.snapshot()
    queries = make_queries(snapshot.graph, 128, seed=seed + 1)
    with prepare_engine("batch", snapshot, spec, sampler="auto") as engine:
        for batch in trace.batches:
            apply_batch(dynamic, batch)
            snapshot = dynamic.snapshot()
            engine.swap_snapshot(snapshot)
            swapped = engine.run(queries, seed=seed + 2)
            static_graph, _ = fresh_static_build(dynamic)
            fresh = run_walks_batch(static_graph, spec, queries,
                                    seed=seed + 2, sampler="auto")
            if not paths_equal(swapped.paths, fresh.paths):
                return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=16,
                        help="RMAT scale (2**scale vertices; acceptance: 16)")
    parser.add_argument("--edge-factor", type=int, default=8)
    parser.add_argument("--queries", type=int, default=30_000,
                        help="large batches are the acceptance shape: per-"
                        "superstep dispatch overhead amortizes, as in the "
                        "serving layer's saturated micro-batches")
    parser.add_argument("--scan-queries", type=int, default=1_000,
                        help="query subsample for the O(d)-scan reservoir "
                        "engine (hops/s is flat in the query count)")
    parser.add_argument("--length", type=int, default=80)
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--q", type=float, default=0.5)
    parser.add_argument("--reps", type=int, default=5,
                        help="timing repetitions, interleaved across "
                        "engines; best-of wins")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--min-worst-ratio", type=float, default=1.3,
                        help="fail a full run when auto is below this "
                        "multiple of the WORST fixed-strategy engine")
    parser.add_argument("--min-best-ratio", type=float, default=1.0,
                        help="fail a full run when auto is below this "
                        "multiple of the BEST fixed-strategy engine")
    parser.add_argument("--json", default=None,
                        help="machine-readable output path; defaults to "
                        "benchmarks/BENCH_hybrid.json for full runs and off "
                        "for --smoke; '' disables")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: tiny graph, conformance assertions "
                        "only (timing gates are noise at this size)")
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale = min(args.scale, 9)
        args.queries = min(args.queries, 400)
        args.scan_queries = min(args.scan_queries, 400)
        args.length = min(args.length, 30)
        args.reps = 1
    args.json = resolve_bench_json_path(args.json, args.smoke, __file__,
                                        "BENCH_hybrid.json")

    # The skewed graph the gate is about: Graph500 initiator, directed.
    graph = rmat(args.scale, edge_factor=args.edge_factor,
                 initiator=GRAPH500_INITIATOR, seed=args.seed, directed=True)
    spec_rejection = Node2VecSpec(p=args.p, q=args.q, strategy="rejection",
                                  max_length=args.length)
    spec_reservoir = Node2VecSpec(p=args.p, q=args.q, strategy="reservoir",
                                  max_length=args.length)
    queries = make_queries(graph, args.queries, seed=args.seed + 1)
    scan_queries = queries[: args.scan_queries]
    run_seed = args.seed + 2
    print(f"graph: {graph} (Graph500-skewed)")
    print(f"workload: Node2Vec p={args.p} q={args.q}, {args.queries} queries, "
          f"length {args.length}")

    auto_kernel = make_walk_kernel(spec_rejection.make_sampler(), "auto")
    auto_kernel.prepare(graph)
    strategy_counts = auto_kernel.strategy_counts()
    print(f"auto selection: {strategy_counts}")

    rejection_kernel = RejectionKernel(p=args.p, q=args.q)
    rejection_kernel.prepare(graph)
    reservoir_kernel = make_walk_kernel(spec_reservoir.make_sampler(), "default")
    reservoir_kernel.prepare(graph)

    # The auto-vs-rejection comparison is tight (the gate is 1.0x), so
    # those two interleave alone; the reservoir engine's O(d) hub scans
    # thrash the cache, and interleaving it with the pair would bias
    # whichever engine ran right after it.
    rates = measure_rates(graph, {
        "auto": (spec_rejection, queries, auto_kernel),
        "rejection": (spec_rejection, queries, rejection_kernel),
    }, run_seed, args.reps)
    rates.update(measure_rates(graph, {
        "reservoir": (spec_reservoir, scan_queries, reservoir_kernel),
    }, run_seed, max(1, args.reps - 2)))
    auto_rate = rates["auto"]
    rejection_rate = rates["rejection"]
    reservoir_rate = rates["reservoir"]
    fixed = {"rejection": rejection_rate, "reservoir": reservoir_rate}
    best_name = max(fixed, key=fixed.get)
    worst_name = min(fixed, key=fixed.get)
    print(f"auto:              {auto_rate:>12,.0f} hops/s")
    print(f"fixed rejection:   {rejection_rate:>12,.0f} hops/s")
    print(f"fixed reservoir:   {reservoir_rate:>12,.0f} hops/s "
          f"({len(scan_queries)} query subsample)")
    worst_ratio = auto_rate / fixed[worst_name] if fixed[worst_name] else float("inf")
    best_ratio = auto_rate / fixed[best_name] if fixed[best_name] else float("inf")
    print(f"auto vs worst ({worst_name}): {worst_ratio:.2f}x "
          f"(required >= {args.min_worst_ratio:.2f}x on full runs)")
    print(f"auto vs best ({best_name}):  {best_ratio:.2f}x "
          f"(required >= {args.min_best_ratio:.2f}x on full runs)")

    print()
    conformance_queries = queries[: min(len(queries), 400)]
    fixed_map_ok = check_fixed_map_conformance(
        graph, spec_rejection, conformance_queries, run_seed)
    print(f"fixed-map conformance (all-rejection == rejection kernel): "
          f"{'OK' if fixed_map_ok else 'FAIL'}")
    cross_engine_ok = check_cross_engine_conformance(
        graph, spec_rejection, conformance_queries, run_seed)
    print(f"cross-engine conformance (batch == parallel == serve-replay): "
          f"{'OK' if cross_engine_ok else 'FAIL'}")
    dynamic_ok = check_dynamic_window_conformance(args.seed)
    print(f"dynamic sliding-window conformance (swap == fresh build): "
          f"{'OK' if dynamic_ok else 'FAIL'}")

    ok = fixed_map_ok and cross_engine_ok and dynamic_ok
    if not ok:
        print("FAIL: hybrid conformance violated", file=sys.stderr)
    if args.smoke:
        print("timing gates skipped on --smoke "
              f"(measured {worst_ratio:.2f}x worst, {best_ratio:.2f}x best)")
    else:
        if worst_ratio < args.min_worst_ratio:
            print(f"FAIL: auto only {worst_ratio:.2f}x the worst fixed engine "
                  f"(gate: >= {args.min_worst_ratio:.2f}x)", file=sys.stderr)
            ok = False
        if best_ratio < args.min_best_ratio:
            print(f"FAIL: auto only {best_ratio:.2f}x the best fixed engine "
                  f"(gate: >= {args.min_best_ratio:.2f}x)", file=sys.stderr)
            ok = False

    if args.json:
        write_bench_json(args.json, {
            "benchmark": "hybrid_sampler",
            "workload": {
                "algorithm": "Node2Vec",
                "p": args.p,
                "q": args.q,
                "graph": f"rmat-{args.scale}-graph500",
                "edge_factor": args.edge_factor,
                "queries": args.queries,
                "length": args.length,
                "smoke": args.smoke,
            },
            "host_cores": default_workers(),
            "strategy_counts": strategy_counts,
            "hops_per_sec": {
                "auto": round(auto_rate),
                "fixed_rejection": round(rejection_rate),
                "fixed_reservoir": round(reservoir_rate),
            },
            "auto_vs_worst_fixed": round(worst_ratio, 3),
            "auto_vs_best_fixed": round(best_ratio, 3),
            "min_worst_ratio_gate": args.min_worst_ratio,
            "min_best_ratio_gate": args.min_best_ratio,
            "conformance": {
                "fixed_map_bit_identical": fixed_map_ok,
                "cross_engine_bit_identical": cross_engine_ok,
                "dynamic_window_bit_identical": dynamic_ok,
            },
            "timing_reps": args.reps,
            "seed": args.seed,
        })
        print(f"wrote {args.json}")

    if ok:
        print("PASS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
