"""Section VI microbenchmarks — the scheduler's formal guarantees.

Two sweeps back the scheduler's design choices (Section VI):

* Theorem VI.1 buffer depth: bubbles collapse once per-pipeline FIFO
  depth reaches ``1 + 4*log2(N)``;
* the asynchronous engine's outstanding-request capacity: throughput
  saturates once the window covers the memory round trip (the paper
  provisions 128).
"""

from conftest import run_once

from repro.bench.experiments import micro_outstanding_sweep, micro_scheduler_depth


def test_micro_theorem_depth_sweep(benchmark, record_result):
    result = record_result(run_once(benchmark, micro_scheduler_depth))

    by_depth = {row["depth"]: row["bubble_ratio"] for row in result.rows}
    depths = sorted(by_depth)
    shallow = by_depth[depths[0]]
    theorem_rows = [row for row in result.rows if row["meets_theorem"]]
    assert theorem_rows, "sweep must include the theorem depth"
    # Bubbles at/above the theorem depth are at least 4x below the
    # shallow configuration.
    for row in theorem_rows:
        assert row["bubble_ratio"] < shallow / 4, row
    # And the deepest configuration is essentially bubble-free.
    assert by_depth[depths[-1]] < 0.01


def test_micro_outstanding_sweep(record_result, benchmark):
    result = record_result(run_once(benchmark, micro_outstanding_sweep))

    by_capacity = {row["outstanding"]: row["msteps"] for row in result.rows}
    # Monotone improvement until saturation.
    assert by_capacity[4] > by_capacity[1]
    assert by_capacity[16] > by_capacity[4]
    assert by_capacity[64] > by_capacity[16] * 0.95
    # 128 buys little over 64 once the round trip is covered.
    assert by_capacity[128] < by_capacity[64] * 1.3
    # The async window is worth at least 5x over blocking access.
    assert by_capacity[128] > 5 * by_capacity[1]
