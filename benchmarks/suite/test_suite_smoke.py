"""Tier-1 smoke test of the benchmark suite.

One ``run.py --smoke --trace 1`` (every workload, untraced and traced, on
tiny graphs) and a look at what it printed: the names ``BENCHMARK.json``
declares are the names reported, every value is a finite number, no layer
a workload exercised reads zero, the correctness checks ran, and nothing
is left in ``/dev/shm``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Counts of events a healthy smoke run does not have.
MAY_BE_ZERO = {"serve.dropped", "serve.failed", "dynamic.compactions", "dynamic.compaction_s"}


def shm_segments() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.fixture(scope="module")
def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke():
    before = shm_segments()
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    contracts = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    return json.loads(lines[-1])["suite"], contracts, shm_segments() - before


def test_declared_names_are_the_reported_names(declaration, smoke):
    suite, contracts, _ = smoke
    end_to_end = {m["name"] for m in declaration["end_to_end"]}
    per_layer = {m["name"] for m in declaration["per_layer"]}
    workloads = [w["name"] for w in declaration["workloads"]]
    assert list(suite) == workloads
    for name in workloads + sorted(end_to_end | per_layer):
        assert NAME.fullmatch(name), name
    seen_layers = set()
    for name in workloads:
        assert end_to_end <= set(suite[name]["end_to_end"]["metrics"]), name
        seen_layers |= set(suite[name]["per_layer"]["metrics"])
    assert seen_layers == per_layer
    # The two end-to-end metrics one workload each owns (run.SUITE_ONLY).
    assert "slo_ok_frac" in suite["serve_poisson"]["end_to_end"]["metrics"]
    assert "updates_per_s" in suite["dynamic_churn"]["end_to_end"]["metrics"]
    # What the driver reads: exactly the declared names, untraced then traced.
    assert len(contracts) == 2 * len(workloads)
    for index, contract in enumerate(contracts):
        assert set(contract) == {"correct", "attempted", "failed", "metrics"}
        assert set(contract["metrics"]) == (per_layer if index % 2 else end_to_end)


def test_values_are_finite_and_exercised_layers_nonzero(smoke):
    suite, _, _ = smoke
    for name, runs in suite.items():
        for kind, report in runs.items():
            for metric, value in report["metrics"].items():
                assert isinstance(value, (int, float)) and math.isfinite(value), (name, metric)
                if kind == "per_layer" and metric not in MAY_BE_ZERO:
                    assert value != 0, (name, metric)
            for metric in ("setup_s", "hops_per_s", "latency_p50_ms", "peak_rss_mb"):
                if kind == "end_to_end":
                    assert report["metrics"][metric] > 0, (name, metric)


def test_correctness_checks_ran_and_nothing_failed(smoke):
    suite, contracts, _ = smoke
    for name, runs in suite.items():
        for report in runs.values():
            assert report["correct"] and report["problem"] is None, (name, report["problem"])
            assert "paths_sha256" in report["checks"], name
            assert report["attempted"] >= 3 and report["failed"] == 0, name
    assert all(contract["correct"] for contract in contracts)


def test_no_shared_memory_segment_left_behind(smoke):
    assert smoke[2] == set()
