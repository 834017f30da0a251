"""RidgeWalker reproduction: perfectly pipelined graph random walks.

A cycle-level Python reproduction of *RidgeWalker: Perfectly Pipelined
Graph Random Walks on FPGAs* (HPCA 2026): the accelerator (asynchronous
pipelines + zero-bubble scheduler), every substrate it depends on (CSR
graphs, Table I samplers, the GRW algorithms, per-query random streams,
an HBM/DDR channel timing model), the baselines it is compared against
(FastRW, LightRW, Su et al., gSampler), and a benchmark harness that
regenerates every table and figure of the paper's evaluation.

Quick start::

    from repro.graph import load_dataset
    from repro.walks import URWSpec, make_queries
    from repro.core import RidgeWalker, RidgeWalkerConfig

    graph = load_dataset("WG", seed=1)
    engine = RidgeWalker(graph, URWSpec(max_length=80), RidgeWalkerConfig())
    run = engine.run(make_queries(graph, 256, seed=2))
    print(run.metrics.summary())
"""

__version__ = "1.0.0"

from repro.errors import (
    BenchmarkError,
    DeadlockError,
    GraphError,
    GraphFormatError,
    MemoryModelError,
    ReproError,
    ResourceModelError,
    SamplingError,
    SchedulerError,
    SimulationError,
    WalkConfigError,
)

__all__ = [
    "BenchmarkError",
    "DeadlockError",
    "GraphError",
    "GraphFormatError",
    "MemoryModelError",
    "ReproError",
    "ResourceModelError",
    "SamplingError",
    "SchedulerError",
    "SimulationError",
    "WalkConfigError",
    "__version__",
]
