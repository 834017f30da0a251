"""Command-line interface: ``python -m repro <command>``.

Eight commands cover the workflows a downstream user reaches for first:

* ``walk`` — run a GRW workload on the simulated accelerator and print
  throughput/utilization (optionally from a graph file);
* ``serve-bench`` — drive the async walk service with an open-loop
  (Poisson or saturation) request workload and print serving metrics;
* ``mutate-bench`` — stream an update trace into a dynamic graph and
  print incremental-maintenance throughput, the peak delta overlay,
  and walk-throughput retention vs a static rebuild;
* ``trace`` — run one of the three commands above with span tracing
  enabled and export the recorded spans as Perfetto-loadable Chrome
  ``trace_event`` JSON or a JSONL event log (``repro.obs``);
* ``metrics`` — run one of the three commands above and export the
  metrics it fed into the global registry as Prometheus text;
* ``lint`` — statically check the determinism & resource-safety
  invariants (seeded streams, non-blocking serve path, ordered
  outputs) over a source tree; the CI gate;
* ``experiment`` — regenerate one of the paper's tables/figures by id
  (the same registry the benchmark suite uses);
* ``info`` — list datasets, algorithms, devices and experiment ids.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import EXPERIMENTS
from repro.bench.workloads import make_spec
from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.engines import (
    ENGINES,
    SOFTWARE_ENGINES,
    hops_per_second,
    prepare_engine,
    run_software_walks,
)
from repro.errors import ReproError, WalkConfigError
from repro.graph import dataset_names, load_dataset, load_edge_list, load_npz
from repro.graph.datasets import assign_metapath_schema
from repro.resources import DEVICE_CATALOG, get_device
from repro.sampling.base import derive_seed, normalize_seed
from repro.serve.workload import SCENARIOS
from repro.sim import UtilizationTracer, render_dashboard
from repro.walks import EngineStats, WalkBatch, make_queries

ALGORITHMS = ("URW", "PPR", "DeepWalk", "Node2Vec", "Node2Vec-reservoir", "MetaPath")

#: ``walk`` options that only affect the accelerator model, as
#: ``(flag, dest, default)``.  Keep in sync with ``build_parser`` — any
#: sim-only option added there must be listed here so the software
#: engines reject it instead of silently ignoring it.
SIM_ONLY_WALK_OPTIONS = (
    ("--streaming", "streaming", False),
    ("--trace", "trace", False),
    ("--pipelines", "pipelines", None),
    ("--device", "device", None),
)

#: Commands the ``trace`` / ``metrics`` observability wrappers can run.
#: They re-dispatch through :func:`build_parser`, so the wrapped command
#: accepts exactly its normal flags.
WRAPPABLE_COMMANDS = ("walk", "serve-bench", "mutate-bench")


class _CommandParser(argparse.ArgumentParser):
    """A command's parser reports the arguments it does not know itself,
    so the usage printed with the error lists every flag it accepts."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RidgeWalker reproduction: graph random walks on a "
        "cycle-level FPGA accelerator simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    walk = sub.add_parser("walk", help="run a GRW workload on the accelerator")
    walk.add_argument("--algorithm", choices=ALGORITHMS, default="URW")
    walk.add_argument("--engine", choices=ENGINES, default="sim",
                      help="execution engine: 'sim' = cycle-level accelerator "
                      "model, 'batch' = vectorized software frontier engine "
                      "(one thread lane per usable CPU on large runs), "
                      "'reference' = pure-Python oracle loop")
    walk.add_argument(
        "--dataset", default="WG",
        help=f"Table II dataset ({', '.join(dataset_names())}) or a path to "
        "a .npz / edge-list graph file",
    )
    walk.add_argument("--device", choices=sorted(DEVICE_CATALOG), default=None,
                      help="accelerator device (default U55C; sim engine only)")
    walk.add_argument("--pipelines", type=int, default=None,
                      help="asynchronous pipelines (default: device maximum)")
    walk.add_argument("--queries", type=int, default=512)
    walk.add_argument("--length", type=int, default=80)
    walk.add_argument("--seed", type=int, default=1)
    walk.add_argument("--scale", type=float, default=1.0,
                      help="dataset scale multiplier")
    walk.add_argument("--streaming", action="store_true",
                      help="measure steady-state throughput (paper methodology) "
                      "instead of running the batch to completion")
    walk.add_argument("--trace", action="store_true",
                      help="print per-pipeline utilization timelines "
                      "(streaming mode only)")

    serve = sub.add_parser(
        "serve-bench",
        help="drive the async walk service with an open-loop workload",
        description="Serve individual walk requests through the walk service "
        "(repro.serve) under an open-loop arrival process and report latency "
        "percentiles, admission-group shape, and sustained throughput.",
    )
    serve.add_argument("--algorithm", choices=ALGORITHMS, default="DeepWalk")
    serve.add_argument("--engine", choices=tuple(SOFTWARE_ENGINES), default="batch",
                       help="execution engine behind the service (default batch)")
    serve.add_argument("--dataset", default="WG",
                       help=f"Table II dataset ({', '.join(dataset_names())}) or "
                       "a path to a .npz / edge-list graph file")
    serve.add_argument("--requests", type=int, default=2000,
                       help="open-loop requests to offer")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="Poisson arrival rate in requests/sec; <= 0 means "
                       "back-to-back saturation arrivals (default)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="walkers that may share one engine step")
    serve.add_argument("--depth", type=int, default=None,
                       help="admission high-water (outstanding requests), "
                       "per tenant with --tenants; default: large enough "
                       "to never shed this workload")
    serve.add_argument("--length", type=int, default=80)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--scale", type=float, default=1.0,
                       help="dataset scale multiplier")
    serve.add_argument("--tenants", type=int, default=0,
                       help="declare N tenant admission classes (tenant 0 "
                       "'premium' at weight 8, the rest best-effort at "
                       "weight 1) and drive them concurrently; 0 (default) "
                       "runs the single anonymous class")
    serve.add_argument("--scenario", choices=SCENARIOS, default="steady",
                       help="arrival shape for the last (stressor) "
                       "tenant — or for the whole stream without --tenants; "
                       "other tenants stay steady Poisson (default steady)")

    mutate = sub.add_parser(
        "mutate-bench",
        help="stream graph updates and measure incremental maintenance",
        description="Drive a streamed sliding-window update trace over an "
        "RMAT graph into a dynamic graph "
        "(repro.dynamic), publishing an epoch snapshot per batch, and report "
        "updates/sec, the peak delta overlay, the speedup of incremental "
        "sampler maintenance over from-scratch rebuilds, and walk-throughput "
        "retention on the final snapshot.  Small graphs rebuild faster: at "
        "the default RMAT-12 with 1,000-op batches the incremental speedup "
        "reads below 1x (0.5-0.6x on a 2-CPU host); the >= 1.3x maintenance "
        "gate holds at RMAT-16 (--scale 16).",
    )
    mutate.add_argument("--algorithm", choices=ALGORITHMS, default="DeepWalk")
    mutate.add_argument("--scale", type=int, default=12,
                        help="RMAT scale (2**scale vertices).  At the default "
                        "12 a rebuild beats incremental maintenance; the "
                        ">= 1.3x maintenance gate runs at 16")
    mutate.add_argument("--edge-factor", type=int, default=8)
    mutate.add_argument("--batch-size", type=int, default=1000,
                        help="edge operations per update batch")
    mutate.add_argument("--batches", type=int, default=20,
                        help="update batches to stream")
    mutate.add_argument("--unweighted", action="store_true",
                        help="drop edge weights")
    mutate.add_argument("--queries", type=int, default=512,
                        help="walk queries for the retention measurement")
    mutate.add_argument("--length", type=int, default=80)
    mutate.add_argument("--seed", type=int, default=1)

    trace = sub.add_parser(
        "trace",
        help="run a command with span tracing enabled and export the trace",
        description="Enable the repro.obs span tracer around one wrapped "
        "command (walk, serve-bench or mutate-bench), then export the "
        "recorded spans as Perfetto-loadable Chrome trace_event JSON "
        "(load the file at https://ui.perfetto.dev or chrome://tracing) "
        "or as a JSONL event log with metric totals appended.  Tracing "
        "is off everywhere else (pay for what you use), and a traced "
        "run's walk paths are bit-identical to an untraced run's.",
    )
    trace.add_argument("--out", default="trace.json",
                       help="output path (default trace.json)")
    trace.add_argument("--format", choices=("chrome", "jsonl"),
                       default="chrome", dest="trace_format",
                       help="chrome = trace_event JSON for Perfetto; "
                       "jsonl = one JSON record per span plus metric "
                       "totals (default chrome)")
    trace.add_argument("--capacity", type=int, default=None,
                       help="span ring-buffer capacity (default 65536); "
                       "on overflow the oldest spans are dropped and the "
                       "drop count reported")
    trace.add_argument("wrapped", choices=WRAPPABLE_COMMANDS,
                       metavar="command",
                       help=f"command to run traced: "
                       f"{', '.join(WRAPPABLE_COMMANDS)}")
    trace.add_argument("rest", nargs=argparse.REMAINDER, metavar="args",
                       help="arguments forwarded to the wrapped command")

    metrics = sub.add_parser(
        "metrics",
        help="run a command and export its metrics as Prometheus text",
        description="Reset the global repro.obs metrics registry, run one "
        "wrapped command (walk, serve-bench or mutate-bench), and export "
        "every counter, gauge and histogram the run fed — engine hop and "
        "termination counters, per-tenant serve ledgers, dynamic-graph "
        "accounting — in Prometheus text exposition format.",
    )
    metrics.add_argument("--out", default=None,
                         help="output path (default: print to stdout)")
    metrics.add_argument("wrapped", choices=WRAPPABLE_COMMANDS,
                         metavar="command",
                         help=f"command to run: "
                         f"{', '.join(WRAPPABLE_COMMANDS)}")
    metrics.add_argument("rest", nargs=argparse.REMAINDER, metavar="args",
                         help="arguments forwarded to the wrapped command")

    lint = sub.add_parser(
        "lint",
        help="statically check determinism & resource-safety invariants",
        description="AST-based static analysis enforcing the repository's "
        "determinism contract (README.md): seed-rooted RNG streams "
        "(RW101/RW102), a non-blocking asyncio serve path (RW104), no set-ordered "
        "outputs (RW105), and monotonic-clock duration measurement (RW107). "
        "Exits 1 if any unsuppressed finding remains; "
        "suppress with `# repro: allow[RW###] <reason>`.",
    )
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the "
                      "installed repro package source)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      dest="output_format",
                      help="report format (default text)")
    lint.add_argument("--select", default=None, metavar="RW###,RW###",
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--verbose", action="store_true",
                      help="also list suppressed findings with their "
                      "recorded reasons")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")

    experiment = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument("id", choices=sorted(EXPERIMENTS),
                            help="table/figure id (`repro info` lists them)")

    sub.add_parser("info", help="list datasets, algorithms, devices, experiments")
    return parser


def _load_graph(args) -> object:
    weighted = args.algorithm in ("DeepWalk", "Node2Vec-reservoir", "MetaPath")
    if args.dataset in dataset_names():
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed,
                             weighted=weighted)
    elif args.dataset.endswith(".npz"):
        graph = load_npz(args.dataset)
    else:
        graph = load_edge_list(args.dataset)
    if args.algorithm == "MetaPath" and not graph.has_edge_types:
        graph = assign_metapath_schema(graph, num_types=3, seed=args.seed)
    return graph


def _run_software_engine(args, graph, spec, queries) -> int:
    """Run the pure-software walk engines and report wall-clock throughput."""
    from repro.obs.metrics import engine_stats_into, global_registry

    stats = EngineStats()
    results, elapsed = run_software_walks(
        args.engine, graph, spec, queries, seed=derive_seed(args.seed, "engine"), stats=stats,
    )
    # Feed the full per-run EngineStats ledger so `repro metrics walk ...`
    # exports hop/proposal/termination counters, not just run totals.
    engine_stats_into(global_registry(), stats, engine=args.engine)
    print(f"\n{args.engine} engine: {stats.total_hops} hops in {elapsed:.3f}s "
          f"({hops_per_second(stats.total_hops, elapsed):,.0f} hops/s)")
    print(f"terminations: {stats.length_terminations} length, "
          f"{stats.dangling_terminations} dangling, "
          f"{stats.early_terminations} early, "
          f"{stats.probabilistic_terminations} probabilistic")
    print(f"sampling: {stats.sampling_proposals} proposals, "
          f"{stats.neighbor_reads} neighbor reads, "
          f"imbalance {stats.imbalance_ratio():.2f}")
    lengths = results.lengths()
    print(f"walk lengths: mean {lengths.mean():.1f}, min {lengths.min()}, "
          f"max {lengths.max()}")
    return 0


def cmd_walk(args) -> int:
    # Dataset generators and SeedSequence both reject negative entropy;
    # masking keeps any int seed working (identity for seed >= 0).
    args.seed = normalize_seed(args.seed)
    if args.engine != "sim":
        # Fail fast, before loading a potentially large graph.
        for flag, dest, default in SIM_ONLY_WALK_OPTIONS:
            if getattr(args, dest) != default:
                raise WalkConfigError(
                    f"{flag} only applies to the accelerator model; drop it or "
                    f"use --engine sim"
                )

    graph = _load_graph(args)
    spec = make_spec(args.algorithm)
    spec.max_length = args.length
    queries = make_queries(graph, args.queries, seed=derive_seed(args.seed, "queries"))

    if args.engine != "sim":
        print(f"graph: {graph}")
        print(f"workload: {args.algorithm}, {args.queries} queries, length {args.length}")
        return _run_software_engine(args, graph, spec, queries)

    device = get_device(args.device or "U55C")
    pipelines = args.pipelines or device.max_pipelines
    config = RidgeWalkerConfig(num_pipelines=pipelines, memory=device.memory)
    engine = RidgeWalker(graph, spec, config, seed=derive_seed(args.seed, "engine"))

    print(f"graph: {graph}")
    print(f"device: {device.name} ({device.memory.name}, {pipelines} pipelines)")
    print(f"workload: {args.algorithm}, {args.queries} queries, length {args.length}")

    if args.streaming:
        tracer = UtilizationTracer(window=128) if args.trace else None
        metrics = engine.run_streaming(queries, tracer=tracer)
        print(f"\nsteady state: {metrics.msteps_per_second():.1f} MStep/s, "
              f"{metrics.effective_bandwidth_gbs():.2f} GB/s "
              f"({metrics.bandwidth_utilization() * 100:.0f}% of Eq.(1) peak), "
              f"bubbles {metrics.bubble_ratio() * 100:.1f}%")
        if tracer is not None:
            print("\nper-window activity (sampling stages) and scheduler FIFO fill:")
            print(render_dashboard(tracer))
    else:
        run = engine.run(queries)
        print(f"\n{run.metrics.summary()}")
        lengths = run.results.lengths()
        print(f"walk lengths: mean {lengths.mean():.1f}, min {lengths.min()}, "
              f"max {lengths.max()}")
    return 0


def cmd_serve_bench(args) -> int:
    """Open-loop serving benchmark: one service, one arrival schedule."""
    import asyncio

    import numpy as np

    from repro.obs.metrics import global_registry
    from repro.serve import (
        ServeConfig,
        TenantSpec,
        TenantTrace,
        WalkService,
        run_tenant_traces,
        scenario_gaps,
    )

    args.seed = normalize_seed(args.seed)
    if args.tenants < 0:
        raise WalkConfigError(f"--tenants must be >= 0, got {args.tenants}")
    graph = _load_graph(args)
    spec = make_spec(args.algorithm)
    spec.max_length = args.length
    starts = make_queries(graph, args.requests, seed=derive_seed(args.seed, "queries")).starts
    # The CLI default never sheds; a deployment passes the depth its own
    # latency budget allows.
    depth = args.depth or max(2 * args.max_batch, args.requests)
    config = ServeConfig(max_batch=args.max_batch, queue_depth=depth)

    print(f"graph: {graph}")
    print(f"workload: {args.algorithm}, {args.requests} requests, "
          f"length {args.length}, scenario {args.scenario}, "
          + (f"Poisson {args.rate:,.0f} req/s" if args.rate > 0
             else "saturation arrivals"))
    print(f"service: engine={args.engine}, "
          f"max_batch={args.max_batch}, "
          f"depth={depth}"
          + (f", tenants={args.tenants}" if args.tenants else ""))

    engine_seed = derive_seed(args.seed, "engine")

    # One trace per tenant class (the anonymous service's single
    # "default" trace without --tenants), driven concurrently; the last
    # tenant is the stressor running --scenario.
    tenant_specs = None
    if args.tenants:
        tenant_specs = [TenantSpec("premium", weight=8, queue_depth=depth)]
        for i in range(1, args.tenants):
            name = "besteffort" if args.tenants == 2 else f"besteffort-{i}"
            tenant_specs.append(TenantSpec(name, weight=1, queue_depth=depth))
    names = [s.name for s in tenant_specs] if tenant_specs else [None]
    per_tenant = max(1, args.requests // len(names))
    traces = []
    for i, name in enumerate(names):
        stressor = i == len(names) - 1
        scenario = args.scenario if stressor else "steady"
        tenant_starts = starts[i * per_tenant:(i + 1) * per_tenant]
        if tenant_starts.size < per_tenant:
            tenant_starts = starts[:per_tenant]
        gaps = scenario_gaps(scenario, per_tenant, args.rate,
                             seed=derive_seed(args.seed, "arrivals", i))
        traces.append(TenantTrace(name or "default", tenant_starts, gaps))

    async def _drive():
        service = WalkService(graph, spec, engine=args.engine,
                              seed=engine_seed, config=config,
                              tenants=tenant_specs)
        async with service:
            reports = await run_tenant_traces(service, traces)
        return reports, service

    reports, service = asyncio.run(_drive())
    service.snapshot_metrics(global_registry())
    print()
    print(service.stats.summary())
    for name, report in reports.items():
        report.check_identity()
        tenant_stats = service.tenant_stats.get(name)
        line = (f"tenant {name}: {report.completed} completed, "
                f"{len(report.dropped)} shed, {len(report.failed)} failed")
        if tenant_stats is not None:
            p99 = tenant_stats.latency_percentiles()["p99"]
            if np.isfinite(p99):
                line += f", p99 {p99 * 1e3:.2f}ms"
        print(line)
    # Every completed path must replay bit-identically through one
    # offline run of the serving engine; the CLI run is its own
    # determinism check.
    all_requests: dict[int, int] = {}
    all_paths: dict[int, np.ndarray] = {}
    for report in reports.values():
        all_requests.update(report.requests)
        all_paths.update(report.paths)
    replay_ids = sorted(all_requests)
    replay = WalkBatch(replay_ids, [all_requests[qid] for qid in replay_ids])
    with prepare_engine(args.engine, graph, spec) as engine:
        results = engine.run(replay, seed=engine_seed)
    oracle = dict(zip(replay_ids, results.paths))
    mismatched = [qid for qid, path in all_paths.items()
                  if not np.array_equal(path, oracle[qid])]
    if mismatched:
        print(f"error: {len(mismatched)} served paths diverge from offline "
              f"replay (first ids: {sorted(mismatched)[:5]})", file=sys.stderr)
        return 1
    print(f"replay identity: {len(all_paths)} served paths bit-identical "
          f"to offline replay")
    return 0


def cmd_mutate_bench(args) -> int:
    """Streamed-update benchmark: one dynamic graph, one update trace."""
    from repro.dynamic import run_mutate_bench, sliding_window_trace

    args.seed = normalize_seed(args.seed)
    if args.algorithm == "MetaPath":
        raise WalkConfigError(
            "the dynamic subsystem does not support edge-typed graphs; "
            "pick a non-MetaPath algorithm"
        )
    trace = sliding_window_trace(
        args.scale,
        edge_factor=args.edge_factor,
        batch_size=args.batch_size,
        num_batches=args.batches,
        weighted=not args.unweighted,
        seed=args.seed,
    )
    spec = make_spec(args.algorithm)
    spec.max_length = args.length

    print(f"trace: {trace.name} ({len(trace.batches)} batches of "
          f"~{args.batch_size} ops; base |V|={trace.num_vertices}, "
          f"|E|={trace.base_edges.shape[0]})")
    print(f"workload: {args.algorithm}, {args.queries} retention queries, "
          f"length {args.length}")
    report = run_mutate_bench(
        trace, spec,
        seed=args.seed,
        walk_queries=args.queries,
    )
    print()
    print(report.summary())
    if not report.snapshot_equivalent:
        print("error: snapshot diverged from a from-scratch build",
              file=sys.stderr)
        return 1
    return 0


def _run_wrapped(command: str, rest: list[str]) -> int:
    """Re-dispatch one wrapped subcommand through the normal parser.

    ``rest`` comes from ``argparse.REMAINDER``; a leading ``--``
    separator (the conventional way to stop the wrapper from eating the
    wrapped command's flags) is stripped.
    """
    if rest and rest[0] == "--":
        rest = rest[1:]
    args = build_parser().parse_args([command, *rest])
    return COMMAND_HANDLERS[args.command](args)


def cmd_trace(args) -> int:
    """Run a wrapped command traced; export Chrome trace JSON or JSONL."""
    from repro.obs import (
        disable_tracing,
        enable_tracing,
        global_registry,
        write_chrome_trace,
        write_jsonl,
    )

    # enable_tracing may replace the global tracer when resizing, so the
    # instance it returns — not a pre-captured one — is the export source.
    tracer = enable_tracing(capacity=args.capacity)
    tracer.clear()
    try:
        rc = _run_wrapped(args.wrapped, args.rest)
    finally:
        disable_tracing()
    events = tracer.events()
    if args.trace_format == "chrome":
        write_chrome_trace(args.out, events)
    else:
        write_jsonl(args.out, events, registry=global_registry(),
                    meta={"command": [args.wrapped, *args.rest],
                          "tracer": tracer.snapshot()})
    print(f"\ntrace: {len(events)} events buffered "
          f"({tracer.dropped} dropped) -> {args.out} [{args.trace_format}]")
    return rc


def cmd_metrics(args) -> int:
    """Run a wrapped command; export the global registry as Prometheus."""
    from repro.obs import (
        global_registry,
        render_prometheus,
        reset_global_registry,
        write_prometheus,
    )

    reset_global_registry()
    rc = _run_wrapped(args.wrapped, args.rest)
    registry = global_registry()
    if args.out:
        count = write_prometheus(args.out, registry)
        print(f"\nmetrics: {count} samples across {len(registry)} "
              f"metrics -> {args.out}")
    else:
        print()
        sys.stdout.write(render_prometheus(registry))
    return rc


def cmd_lint(args) -> int:
    """Static determinism & resource-safety analysis (the CI gate)."""
    from pathlib import Path

    import repro
    from repro.analysis import all_rules, lint_paths, render_json, render_text

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name}")
            print(f"       {rule.description}")
        return 0
    paths = args.paths or [Path(repro.__file__).resolve().parent]
    select = (
        [part.strip() for part in args.select.split(",") if part.strip()]
        if args.select else None
    )
    report = lint_paths(paths, select=select)
    if args.output_format == "json":
        sys.stdout.write(render_json(report))
    else:
        print(render_text(report, verbose=args.verbose))
    return report.exit_code


def cmd_experiment(args) -> int:
    result = EXPERIMENTS[args.id]()
    print(result.to_table())
    return 0


def cmd_info(args) -> int:
    print("datasets:   ", ", ".join(dataset_names()))
    print("algorithms: ", ", ".join(ALGORITHMS))
    print("devices:    ", ", ".join(sorted(DEVICE_CATALOG)))
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    return 0


#: Dispatch table shared by ``main`` and the trace/metrics wrappers.
COMMAND_HANDLERS = {
    "walk": cmd_walk,
    "serve-bench": cmd_serve_bench,
    "mutate-bench": cmd_mutate_bench,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "lint": cmd_lint,
    "experiment": cmd_experiment,
    "info": cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMAND_HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
