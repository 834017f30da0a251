"""QoS serving benchmark: tenant isolation under flood + epoch-safe caching.

Three legs on one workload (default: Node2Vec, length 80, RMAT — the
same representative serving workload as ``bench_serve.py``):

1. **Nominal two-tenant baseline** — a premium (weight 8) and a
   best-effort (weight 1) tenant both offer steady Poisson load well
   inside their declared capacity shares; per-tenant depths come from
   :func:`repro.serve.size_tenant_depths` (the M/M/1[N] model against
   each tenant's weight share).  Records the premium tenant's p99 —
   the SLO reference for leg 2.  Nothing may shed at nominal load.
2. **Flash crowd** — the premium tenant offers the *same* schedule while
   the best-effort tenant's arrivals flash to a multiple of service
   capacity behind a deliberately small queue depth.  The isolation
   gate (full runs): premium p99 under the flood stays within
   ``--p99-factor`` (default 2x) of its nominal p99, while the
   best-effort tenant sheds at its own gate (``dropped > 0`` — asserted
   on smokes too; a flash crowd that nothing sheds wasn't over
   capacity).
3. **Hot-walk cache across epochs** — a dynamic two-epoch graph served
   with a :class:`repro.serve.HotWalkCache` while a hub is hammered with
   query-id-independent requests; the epoch swaps mid-run.  Hard
   assertions (all runs): cache hits occur on *both* epochs, every
   response after the swap carries the new epoch, and every response —
   hit or miss — replays bit-identically offline against its own
   epoch's graph under the query id it carries.

Every leg also asserts the accounting identity
``offered == completed + dropped + failed`` per tenant and globally.

``--smoke`` (wired into ``scripts/check.sh``) shrinks the workload and
skips the p99-factor gate (tail latency on a loaded CI host is noise at
that size) but keeps every hard assertion above.

Run:  PYTHONPATH=src python benchmarks/bench_serve_qos.py          # acceptance run
      PYTHONPATH=src python benchmarks/bench_serve_qos.py --smoke  # fast CI gate
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

import numpy as np

from repro.bench.reporting import resolve_bench_json_path, write_bench_json
from repro.bench.workloads import RMAT_BENCH_ALGORITHMS, make_spec
from repro.dynamic import DynamicGraph
from repro.graph import from_edges, rmat
from repro.sampling.vectorized import make_kernel
from repro.serve import (
    HotWalkCache,
    ServeConfig,
    TenantSpec,
    TenantTrace,
    WalkService,
    arrival_gaps,
    flash_crowd_gaps,
    replay_paths,
    run_tenant_traces,
    size_tenant_depths,
)
from repro.walks import EngineStats, make_queries
from repro.walks.batch import run_walks_batch_arrays

PREMIUM, BESTEFFORT = "premium", "besteffort"


def closed_capacity(graph, spec, starts, seed, max_batch):
    """Measured service capacity in requests/sec (warmed closed batches).

    Run ``max_batch`` walkers at a time, the most the service ever steps
    together: a superstep costs about the same for 32 walkers as for
    400, so one closed batch of every query overstates what a
    ``max_batch``-lane service can sustain by roughly that ratio.
    """
    kernel = make_kernel(spec.make_sampler())
    kernel.prepare(graph)
    query_ids = np.arange(starts.size, dtype=np.int64)
    stats = EngineStats()
    started = time.perf_counter()
    for lo in range(0, starts.size, max_batch):
        run_walks_batch_arrays(graph, spec, kernel, starts[lo:lo + max_batch],
                               query_ids[lo:lo + max_batch],
                               seed=seed, stats=stats)
    elapsed = time.perf_counter() - started
    return starts.size / elapsed


def drive_two_tenants(graph, spec, seed, config, specs, traces):
    """Run both tenants' schedules against one service; return reports+service."""

    async def _run():
        service = WalkService(graph, spec, engine="batch", seed=seed,
                              config=config, tenants=specs)
        async with service:
            reports = await run_tenant_traces(service, traces)
        return reports, service

    return asyncio.run(_run())


def check_identity(reports, service) -> bool:
    """Accounting identity per tenant and on the global ledger."""
    ok = True
    for name, report in reports.items():
        try:
            report.check_identity()
        except AssertionError as exc:
            print(f"FAIL: tenant {name}: {exc}", file=sys.stderr)
            ok = False
        tenant = service.tenant_stats[name]
        if tenant.offered != tenant.completed + tenant.dropped + tenant.failed:
            print(f"FAIL: tenant {name} service ledger broken: "
                  f"{tenant.snapshot()}", file=sys.stderr)
            ok = False
    stats = service.stats
    if stats.offered != stats.completed + stats.dropped + stats.failed:
        print(f"FAIL: global service ledger broken: {stats.snapshot()}",
              file=sys.stderr)
        ok = False
    return ok


def check_replay(graph, spec, reports, seed, label) -> bool:
    """Every completed path across all tenants equals its offline replay."""
    requests, paths = {}, {}
    for report in reports.values():
        requests.update(report.requests)
        paths.update(report.paths)
    oracle = replay_paths(graph, spec, requests, seed=seed)
    for query_id, path in paths.items():
        if not np.array_equal(path, oracle[query_id]):
            print(f"FAIL: {label}: request {query_id} diverged from offline "
                  f"replay", file=sys.stderr)
            return False
    print(f"replay:   {label}: {len(paths)} served paths bit-identical offline")
    return True


def cache_epoch_leg(spec_length, seed, pool_size, hammer_count):
    """Leg 3: hot-walk cache correctness across an epoch swap.

    A two-epoch ring graph (forward, then reversed — URW on degree-1
    vertices is deterministic, so a path identifies its epoch) served
    with a cache while one vertex is hammered through the cached path;
    the swap lands mid-hammer.  Returns (ok, metrics dict).
    """
    from repro.walks import URWSpec

    n = 64
    forward = from_edges([(i, (i + 1) % n) for i in range(n)], num_vertices=n)
    dynamic = DynamicGraph(forward)
    cache = HotWalkCache(pool_size=pool_size, hot_threshold=4)
    dynamic.add_epoch_listener(cache.on_epoch)
    snap0 = dynamic.snapshot()
    spec = URWSpec(max_length=spec_length)
    hub = 0
    config = ServeConfig(max_batch=16, max_wait_ms=0.5,
                         queue_depth=4 * hammer_count)

    async def _hammer(service, count, wave=8):
        # Waves, not one synchronous burst: the pool fill triggered by
        # the first wave's misses must execute before later waves can
        # hit it (awaiting a wave drains its micro-batch, and the fill
        # rides the same queue).
        walks = []
        for _ in range((count + wave - 1) // wave):
            walks.extend(await asyncio.gather(*[
                service.try_submit_cached(hub)
                for _ in range(min(wave, count - len(walks)))
            ]))
        return walks

    async def _run():
        service = WalkService(snap0, spec, engine="batch", seed=seed,
                              config=config, cache=cache)
        async with service:
            first = await _hammer(service, hammer_count)
            dynamic.remove_edges([(i, (i + 1) % n) for i in range(n)])
            dynamic.add_edges([(i, (i - 1) % n) for i in range(n)])
            snap1 = dynamic.snapshot()
            await service.update_graph(snap1)
            second = await _hammer(service, hammer_count)
        return first, second, snap1

    first, second, snap1 = asyncio.run(_run())
    graphs = {snap0.epoch: snap0.graph, snap1.epoch: snap1.graph}
    ok = True
    hits = {snap0.epoch: 0, snap1.epoch: 0}
    for leg, walks in (("pre-swap", first), ("post-swap", second)):
        for walk in walks:
            if walk.cache_hit:
                hits[walk.epoch] += 1
            oracle = replay_paths(graphs[walk.epoch], spec,
                                  {walk.query_id: hub}, seed=seed)
            if not np.array_equal(walk.path, oracle[walk.query_id]):
                print(f"FAIL: cache {leg}: query {walk.query_id} (epoch "
                      f"{walk.epoch}, hit={walk.cache_hit}) diverged from "
                      f"its epoch's replay", file=sys.stderr)
                ok = False
    if any(walk.epoch != snap1.epoch for walk in second):
        print("FAIL: cache: a post-swap response carries a stale epoch",
              file=sys.stderr)
        ok = False
    for epoch, count in hits.items():
        if count == 0:
            print(f"FAIL: cache: no hits on epoch {epoch} — the pool never "
                  f"warmed or survived wrongly", file=sys.stderr)
            ok = False
    if ok:
        print(f"replay:   cache: {2 * hammer_count} responses bit-identical "
              f"per-epoch (hits: {hits})")
    return ok, {"hits_by_epoch": {str(k): v for k, v in hits.items()},
                **cache.snapshot()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=16,
                        help="RMAT scale (2**scale vertices)")
    parser.add_argument("--edge-factor", type=int, default=12)
    parser.add_argument("--requests", type=int, default=4000,
                        help="requests per tenant per leg")
    parser.add_argument("--length", type=int, default=80)
    parser.add_argument("--algorithm", choices=RMAT_BENCH_ALGORITHMS,
                        default="Node2Vec")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--load", type=float, default=0.4,
                        help="nominal per-tenant offered load as a fraction "
                        "of measured capacity (premium tenant)")
    parser.add_argument("--flash-multiplier", type=float, default=8.0,
                        help="best-effort burst rate as a multiple of its "
                        "nominal rate during the flash crowd")
    parser.add_argument("--p99-factor", type=float, default=2.0,
                        help="fail a full run when premium p99 under flood "
                        "exceeds this factor of its nominal p99")
    parser.add_argument("--json", default=None,
                        help="machine-readable output path; defaults to "
                        "benchmarks/BENCH_serve_qos.json for full runs and "
                        "off for --smoke; '' disables")
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: tiny workload, no p99 gate, hard "
                        "shed/identity/replay/cache assertions")
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale = min(args.scale, 10)
        args.edge_factor = min(args.edge_factor, 8)
        args.requests = min(args.requests, 200)
        args.length = min(args.length, 32)
        args.max_batch = min(args.max_batch, 32)
    args.json = resolve_bench_json_path(args.json, args.smoke, __file__,
                                        "BENCH_serve_qos.json")

    graph = rmat(args.scale, edge_factor=args.edge_factor, seed=args.seed)
    spec = make_spec(args.algorithm)
    spec.max_length = args.length
    queries = make_queries(graph, 2 * args.requests, seed=args.seed + 1)
    starts = np.fromiter((q.start_vertex for q in queries), dtype=np.int64,
                         count=len(queries))
    serve_seed = args.seed + 2
    print(f"graph: {graph}")
    print(f"workload: {args.algorithm}, {args.requests} requests/tenant, "
          f"length {args.length}, max_batch {args.max_batch}")

    capacity = closed_capacity(graph, spec, starts, serve_seed, args.max_batch)
    print(f"capacity: {capacity:,.0f} req/s (closed batches of {args.max_batch})")

    # Declared rates sit inside each tenant's weight share (premium 8/9,
    # best-effort 1/9 of capacity) so the depth model accepts them.
    premium_rate = args.load * capacity
    besteffort_rate = min(0.5 * premium_rate, 0.08 * capacity)
    specs = (
        TenantSpec(PREMIUM, weight=8, rate_per_second=premium_rate),
        TenantSpec(BESTEFFORT, weight=1, rate_per_second=besteffort_rate),
    )
    depths = size_tenant_depths(specs, capacity, args.max_batch)
    config = ServeConfig(max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
                         queue_depth=max(depths.values()))
    sized = tuple(
        TenantSpec(s.name, weight=s.weight, rate_per_second=s.rate_per_second,
                   queue_depth=depths[s.name])
        for s in specs
    )
    print(f"depths:   {depths} (M/M/1[N] against weight shares)")

    premium_starts = starts[:args.requests]
    besteffort_starts = starts[args.requests:2 * args.requests]
    premium_gaps = arrival_gaps(args.requests, premium_rate, seed=args.seed + 3)

    # -- leg 1: nominal two-tenant baseline --------------------------------
    nominal_traces = [
        TenantTrace(PREMIUM, premium_starts, premium_gaps),
        TenantTrace(BESTEFFORT, besteffort_starts,
                    arrival_gaps(args.requests, besteffort_rate,
                                 seed=args.seed + 4)),
    ]
    reports, service = drive_two_tenants(graph, spec, serve_seed, config,
                                         sized, nominal_traces)
    nominal_p99 = service.tenant_stats[PREMIUM].latency_percentiles()["p99"]
    nominal_snapshot = {name: service.tenant_stats[name].snapshot()
                        for name in (PREMIUM, BESTEFFORT)}
    print(f"nominal:  premium p99 {nominal_p99 * 1e3:.2f}ms, "
          f"best-effort p99 "
          f"{service.tenant_stats[BESTEFFORT].latency_percentiles()['p99'] * 1e3:.2f}ms")
    ok = check_identity(reports, service)
    shed = sum(len(r.dropped) for r in reports.values())
    if shed:
        print(f"FAIL: nominal load shed {shed} requests with model-sized "
              f"depths {depths}", file=sys.stderr)
        ok = False
    ok = check_replay(graph, spec, reports, serve_seed, "nominal") and ok

    # -- leg 2: flash crowd on the best-effort tenant ----------------------
    # Same premium schedule; best-effort floods at flash-multiplier x its
    # nominal rate behind a deliberately small depth, so it must shed.
    flood = tuple(
        TenantSpec(s.name, weight=s.weight, rate_per_second=s.rate_per_second,
                   queue_depth=(depths[PREMIUM] if s.name == PREMIUM
                                else args.max_batch))
        for s in specs
    )
    flash_traces = [
        TenantTrace(PREMIUM, premium_starts, premium_gaps),
        TenantTrace(BESTEFFORT, besteffort_starts,
                    flash_crowd_gaps(args.requests, besteffort_rate,
                                     burst_multiplier=args.flash_multiplier
                                     * premium_rate / besteffort_rate,
                                     seed=args.seed + 5)),
    ]
    flash_reports, flash_service = drive_two_tenants(
        graph, spec, serve_seed, config, flood, flash_traces)
    flash_p99 = flash_service.tenant_stats[PREMIUM].latency_percentiles()["p99"]
    flash_shed = len(flash_reports[BESTEFFORT].dropped)
    flash_snapshot = {name: flash_service.tenant_stats[name].snapshot()
                      for name in (PREMIUM, BESTEFFORT)}
    factor = flash_p99 / nominal_p99 if nominal_p99 > 0 else float("inf")
    print(f"flash:    premium p99 {flash_p99 * 1e3:.2f}ms "
          f"({factor:.2f}x nominal; gate <= {args.p99_factor:.1f}x on full "
          f"runs), best-effort shed {flash_shed}")
    ok = check_identity(flash_reports, flash_service) and ok
    if flash_shed == 0:
        print("FAIL: flash crowd shed nothing — the burst never exceeded "
              "best-effort capacity; the leg is not a flood", file=sys.stderr)
        ok = False
    if len(flash_reports[PREMIUM].dropped) > 0:
        print(f"FAIL: the flood shed {len(flash_reports[PREMIUM].dropped)} "
              f"premium requests — tenant isolation failed at admission",
              file=sys.stderr)
        ok = False
    ok = check_replay(graph, spec, flash_reports, serve_seed, "flash") and ok

    # -- leg 3: hot-walk cache across an epoch swap ------------------------
    cache_ok, cache_metrics = cache_epoch_leg(
        spec_length=min(args.length, 16), seed=args.seed + 6,
        pool_size=16, hammer_count=max(32, args.requests // 20))
    ok = cache_ok and ok

    if args.json:
        write_bench_json(args.json, {
            "benchmark": "serve_qos",
            "workload": {
                "algorithm": args.algorithm,
                "graph": f"rmat-{args.scale}",
                "edge_factor": args.edge_factor,
                "requests_per_tenant": args.requests,
                "length": args.length,
                "smoke": args.smoke,
            },
            "service": {
                "max_batch": args.max_batch,
                "max_wait_ms": args.max_wait_ms,
                "capacity_req_per_sec": round(capacity),
                "tenant_depths": depths,
                "premium_rate_per_sec": round(premium_rate, 1),
                "besteffort_rate_per_sec": round(besteffort_rate, 1),
            },
            "nominal": nominal_snapshot,
            "flash": {
                **flash_snapshot,
                "premium_p99_factor": (round(factor, 3)
                                       if np.isfinite(factor) else None),
                "besteffort_shed": flash_shed,
            },
            "cache": cache_metrics,
            "gate": {
                "p99_factor": args.p99_factor,
                "enforced": not args.smoke,
            },
        })
        print(f"wrote {args.json}")

    if not ok:
        return 1
    if not args.smoke and factor > args.p99_factor:
        print(f"FAIL: premium p99 degraded {factor:.2f}x under the flash "
              f"crowd (gate {args.p99_factor:.1f}x) — tenant isolation "
              f"failed at dispatch", file=sys.stderr)
        return 1
    print("PASS" + (" (smoke: isolation sheds + identity + per-epoch replay)"
                    if args.smoke else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
