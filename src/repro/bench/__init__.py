"""Benchmark harness: experiment registry, workloads, reporting."""

from repro.bench.experiments import (
    EXPERIMENTS,
    FIG9_BANDS,
    FIG10_CONFIGS,
    FIG11_VARIANTS,
    TABLE1_ROWS,
)
from repro.bench.reporting import ExperimentResult, geometric_mean, speedup
from repro.bench.workloads import (
    WALK_LENGTH,
    BenchSize,
    Workload,
    make_rmat_workload,
    make_spec,
    make_workload,
    run_ridgewalker_streaming,
)

__all__ = [
    "BenchSize",
    "EXPERIMENTS",
    "ExperimentResult",
    "FIG10_CONFIGS",
    "FIG11_VARIANTS",
    "FIG9_BANDS",
    "TABLE1_ROWS",
    "WALK_LENGTH",
    "Workload",
    "geometric_mean",
    "make_rmat_workload",
    "make_spec",
    "make_workload",
    "run_ridgewalker_streaming",
    "speedup",
]
