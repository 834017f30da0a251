"""Shared fixtures for the experiment benchmarks.

Each benchmark runs its experiment exactly once (``pedantic`` with one
round — these are simulations, not microbenchmarks to be repeated),
prints the regenerated table, and archives it as
``benchmarks/results/<experiment id>.txt`` (untracked; the printed
table is the record).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.reporting import ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def record_result():
    """Print and archive one ExperimentResult."""

    def _record(result: ExperimentResult) -> ExperimentResult:
        table = result.to_table()
        print()
        print(table)
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{result.experiment_id}.txt"
        path.write_text(table + "\n", encoding="utf-8")
        return result

    return _record


def run_once(benchmark, fn):
    """Run an experiment function once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
