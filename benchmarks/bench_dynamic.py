"""Dynamic-graph benchmark: incremental maintenance vs full rebuilds.

Streams a sliding-window update trace (the default; grow-only and
weight-churn are selectable) over an RMAT graph into
:class:`repro.dynamic.DynamicGraph`, publishing one epoch snapshot per
batch, and measures:

1. **updates/s** — edge operations applied and published per second,
   including the incremental maintenance of the sampler state
   ``--algorithm``'s kernel reads (asked for at epoch 0; a snapshot
   maintains what has been read and nothing else);
2. **maintenance speedup** — per-batch incremental cost vs the
   from-scratch rebuild (``from_edges`` + the same kernel's read on a
   fresh ``SamplerState``) a static pipeline pays per update batch —
   like with like: alias slots on both sides for DeepWalk, edge keys and
   their filter for Node2Vec, the CSR alone for URW/PPR.  Full runs **gate**
   this at ``--min-speedup`` (default 1.3x) on the RMAT-16 sliding-window
   trace — incremental maintenance that cannot clearly beat a rebuild
   has no reason to exist.  The gate has fallen twice, each time
   because the *denominator* got faster, not because maintenance got
   slower.  It was 5x while both sides ran per-row Python builders
   (821 ms rebuild / 151 ms incremental batch = 5.4x on the recording
   host); the row-segmented builders they now share made it 99 ms /
   37 ms = 2.7x (gate 2x); then ``from_edges`` moved to one key sort
   (``stable_order`` instead of ``lexsort``), which took the rebuild
   alone from 94-103 ms to 56 ms while the incremental batch stayed at
   35-37 ms: 1.5x, so the gate is 1.3x.  Then both sides stopped
   preparing what the walk never loads (ITS rows, strategy map, edge
   keys under DeepWalk) and the apply path got its one-pass membership
   search: 39 ms rebuild / 22 ms incremental batch = 1.8x, gate
   unchanged.  The gate is calibrated on the DeepWalk default; a kernel
   with no prepared state leaves CSR construction alone on both sides,
   where one key sort over 247k edges (8.7 ms) is as fast as merge +
   assemble of ~1,000 dirty rows (PPR reads 0.9-1.0x, Node2Vec 1.0x —
   pass ``--min-speedup 0`` to record those).  What is left of an
   incremental batch is mostly O(|E|) copies and hub rows rebuilt whole,
   which a rebuild pays too.  The record carries both absolute times
   (``mean_full_rebuild_ms``, ``mean_incremental_ms``) — read those,
   not the ratio;
3. **walk-throughput retention** — batch-engine hops/s on the final
   snapshot (kernel state handed over from the snapshot, zero prepare)
   vs a freshly built static graph, with paths and ``EngineStats``
   required to be **bit-identical** (the snapshot-equivalence guarantee;
   asserted on smokes and full runs alike).

``--smoke`` (wired into ``scripts/check.sh``) shrinks the trace and
skips the timing gate (wall-clock on a loaded CI host is noise at that
size) but keeps the hard equivalence assertion.

Run:  PYTHONPATH=src python benchmarks/bench_dynamic.py          # acceptance run
      PYTHONPATH=src python benchmarks/bench_dynamic.py --smoke  # fast CI gate
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.reporting import resolve_bench_json_path, write_bench_json
from repro.bench.workloads import make_spec
from repro.dynamic import make_trace, run_mutate_bench

ALGORITHMS = ("DeepWalk", "Node2Vec", "PPR", "URW")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", choices=("grow", "window", "churn"),
                        default="window",
                        help="update pattern (acceptance gate: window)")
    parser.add_argument("--scale", type=int, default=16,
                        help="RMAT scale (2**scale vertices)")
    parser.add_argument("--edge-factor", type=int, default=8)
    parser.add_argument("--batch-size", type=int, default=600,
                        help="edge operations per update batch")
    parser.add_argument("--batches", type=int, default=60,
                        help="60 batches of 600 ops cross the default "
                        "compaction threshold on RMAT-16, so the acceptance "
                        "run records a real compaction cost")
    parser.add_argument("--algorithm", choices=ALGORITHMS, default="DeepWalk",
                        help="walk workload for the retention measurement "
                        "(DeepWalk exercises the weighted alias path the "
                        "incremental maintenance exists for)")
    parser.add_argument("--queries", type=int, default=2048)
    parser.add_argument("--length", type=int, default=80)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--compaction-threshold", type=float, default=0.25)
    parser.add_argument("--min-speedup", type=float, default=1.3,
                        help="fail a full run when incremental maintenance is "
                        "not at least this much faster than full rebuilds")
    parser.add_argument("--json", default=None,
                        help="machine-readable output path; defaults to "
                        "benchmarks/BENCH_dynamic.json for full runs and off "
                        "for --smoke; '' disables")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: tiny trace, no timing gate, hard "
                        "snapshot-equivalence assertion")
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale = min(args.scale, 9)
        args.batch_size = min(args.batch_size, 200)
        args.batches = min(args.batches, 6)
        args.queries = min(args.queries, 256)
        args.length = min(args.length, 40)
    args.json = resolve_bench_json_path(args.json, args.smoke, __file__,
                                        "BENCH_dynamic.json")

    kwargs = dict(edge_factor=args.edge_factor, batch_size=args.batch_size,
                  num_batches=args.batches, seed=args.seed)
    if args.trace != "churn":
        kwargs["weighted"] = True
    trace = make_trace(args.trace, args.scale, **kwargs)
    spec = make_spec(args.algorithm)
    spec.max_length = args.length

    print(f"trace: {trace.name}, {len(trace.batches)} batches of "
          f"~{args.batch_size} edge ops ({trace.total_ops} total)")
    print(f"retention workload: {args.algorithm}, {args.queries} queries, "
          f"length {args.length}")
    report = run_mutate_bench(
        trace, spec,
        seed=args.seed,
        walk_queries=args.queries,
        compaction_threshold=args.compaction_threshold,
    )
    print()
    print(report.summary())
    print()

    ok = True
    if not report.snapshot_equivalent:
        print("FAIL: snapshot diverged from a from-scratch build of the same "
              "logical graph (arrays, paths or EngineStats)", file=sys.stderr)
        ok = False
    else:
        print("equivalence: snapshot bit-identical to a from-scratch build "
              "(graph arrays, sampler state, walk paths, EngineStats)")
    if args.smoke:
        print(f"speedup gate skipped on --smoke (measured "
              f"{report.maintenance_speedup:.1f}x)")
    elif report.maintenance_speedup < args.min_speedup:
        print(f"FAIL: incremental maintenance only "
              f"{report.maintenance_speedup:.1f}x faster than full rebuilds "
              f"(gate: >= {args.min_speedup:.1f}x)", file=sys.stderr)
        ok = False
    else:
        print(f"speedup gate: {report.maintenance_speedup:.1f}x >= "
              f"{args.min_speedup:.1f}x")

    if args.json:
        payload = {
            "benchmark": "dynamic",
            "trace": report.trace,
            "algorithm": report.algorithm,
            "scale": args.scale,
            "edge_factor": args.edge_factor,
            "batch_size": args.batch_size,
            "batches": report.num_batches,
            "ops_applied": report.ops_applied,
            "final_edges": report.final_edges,
            "final_epoch": report.final_epoch,
            "updates_per_second": round(report.updates_per_second, 1),
            "mean_incremental_ms": round(
                report.incremental_seconds / max(1, report.num_batches) * 1e3, 3),
            "mean_snapshot_ms": round(report.mean_snapshot_seconds * 1e3, 3),
            "compactions": report.compactions,
            "compaction_seconds": round(report.compaction_seconds, 4),
            "updates_applied": report.updates_applied,
            "delta_edges": report.delta_edges,
            "delta_peak": report.delta_peak,
            "mean_full_rebuild_ms": round(
                report.mean_full_rebuild_seconds * 1e3, 3),
            "maintenance_speedup": round(report.maintenance_speedup, 2),
            "min_speedup_gate": args.min_speedup,
            "dynamic_hops_per_second": round(report.dynamic_hops_per_second, 1),
            "static_hops_per_second": round(report.static_hops_per_second, 1),
            "walk_retention": round(report.walk_retention, 4),
            "snapshot_equivalent": report.snapshot_equivalent,
            "host_cores": os.cpu_count(),
            "seed": args.seed,
        }
        write_bench_json(args.json, payload)
        print(f"wrote {args.json}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
