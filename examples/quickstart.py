"""Quickstart: run random walks on the simulated RidgeWalker accelerator.

Builds a scaled stand-in of the paper's web-Google dataset, runs a batch
of uniform random walks on a 4-pipeline RidgeWalker, checks the paths
against the pure-software reference engine, and prints the performance
counters the paper's evaluation is built from.

Run:  python examples/quickstart.py
"""

from repro.core import RidgeWalker, RidgeWalkerConfig
from repro.graph import degree_statistics, load_dataset
from repro.memory.spec import HBM2_U55C
from repro.walks import URWSpec, make_queries, run_walks


def main() -> None:
    # 1. A graph.  Table II datasets are regenerated as scaled synthetic
    #    stand-ins with the same structural character (see
    #    repro.graph.datasets; `repro experiment tab2` prints both).
    graph = load_dataset("WG", seed=1)
    stats = degree_statistics(graph)
    print(f"graph: {graph}")
    print(
        f"  mean degree {stats.mean:.1f}, max {stats.maximum}, "
        f"{stats.dangling_fraction * 100:.0f}% dangling vertices"
    )

    # 2. A walk specification: uniform random walks, the paper's length.
    spec = URWSpec(max_length=80)

    # 3. A query batch (random start vertices with outgoing edges).
    queries = make_queries(graph, 256, seed=2)

    # 4. The accelerator: 4 asynchronous pipelines on U55C-class HBM.
    config = RidgeWalkerConfig(num_pipelines=4, memory=HBM2_U55C)
    engine = RidgeWalker(graph, spec, config, seed=3)
    run = engine.run(queries)

    print("\naccelerator run:")
    print(f"  {run.metrics.summary()}")
    print(f"  bandwidth utilization: {run.metrics.bandwidth_utilization() * 100:.0f}%")
    print(f"  first path: {run.results.path_of(0).tolist()[:12]} ...")

    # 5. Cross-check against the software reference engine: same spec,
    #    same queries — statistically interchangeable results.
    reference = run_walks(graph, spec, queries, seed=4)
    print("\nreference engine (software):")
    print(f"  mean walk length: {reference.lengths().mean():.1f} hops")
    print(f"  accelerator mean: {run.results.lengths().mean():.1f} hops")

    # 6. Steady-state throughput, measured the way the paper measures it:
    #    a continuous query stream and a fixed observation window.
    metrics = RidgeWalker(graph, spec, config, seed=3).run_streaming(
        queries, warmup_cycles=2000, measure_cycles=8000
    )
    print("\nsteady-state (streaming) throughput:")
    print(f"  {metrics.msteps_per_second():.0f} MStep/s at {config.core_mhz:.0f} MHz")


if __name__ == "__main__":
    main()
