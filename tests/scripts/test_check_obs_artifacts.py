"""``scripts/check_obs_artifacts.py``: the read-back of the observability
smoke's trace and metrics files passes on what ``repro trace`` and
``repro metrics`` write, and fails on an empty record."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.exporters import write_jsonl, write_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "scripts" / "check_obs_artifacts.py"

spec = importlib.util.spec_from_file_location("check_obs_artifacts", SCRIPT)
check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check)


def trace_file(path, steps):
    tracer = Tracer(capacity=64)
    tracer.enable()
    with tracer.span("serve.turn"):
        for step in range(steps):
            with tracer.span("serve.step", step=step):
                pass
    write_jsonl(path, tracer.events())
    return path


def metrics_file(path, hops):
    """``hops``: one engine-hops sample per entry, or None for none."""
    registry = MetricsRegistry()
    registry.counter("repro_walks_total", "walks").inc(4)
    if hops is not None:
        counter = registry.counter("repro_engine_hops_total", "hops")
        for engine, value in hops.items():
            counter.inc(value, engine=engine)
    write_prometheus(path, registry)
    return path


def run_check(tmp_path, steps, hops):
    return check.main([str(trace_file(tmp_path / "t.jsonl", steps)),
                       str(metrics_file(tmp_path / "m.prom", hops))])


def test_a_trace_with_steps_and_hops_passes(tmp_path, capsys):
    assert run_check(tmp_path, steps=3, hops={"batch": 120}) == 0
    out, err = capsys.readouterr()
    assert "3 serve.step spans" in out and "120 engine hops" in out
    assert err == ""


def test_hops_are_summed_over_label_sets(tmp_path, capsys):
    assert run_check(tmp_path, steps=1, hops={"batch": 5, "reference": 7}) == 0
    assert "12 engine hops" in capsys.readouterr().out


def test_a_trace_without_a_serve_step_fails(tmp_path, capsys):
    assert run_check(tmp_path, steps=0, hops={"batch": 120}) == 1
    assert "no serve.step span" in capsys.readouterr().err


def test_zero_engine_hops_fail(tmp_path, capsys):
    assert run_check(tmp_path, steps=2, hops={"batch": 0}) == 1
    assert "repro_engine_hops_total is 0" in capsys.readouterr().err


def test_missing_engine_hops_fail(tmp_path, capsys):
    assert run_check(tmp_path, steps=2, hops=None) == 1
    assert "repro_engine_hops_total is missing" in capsys.readouterr().err


def test_both_problems_are_reported(tmp_path, capsys):
    assert run_check(tmp_path, steps=0, hops=None) == 1
    err = capsys.readouterr().err
    assert err.count("error: ") == 2


@pytest.mark.parametrize("argv", [[], ["only.jsonl"], ["a", "b", "c"]],
                         ids=["none", "one", "three"])
def test_a_wrong_argument_count_prints_usage(argv, capsys):
    assert check.main(argv) == 2
    assert "check_obs_artifacts.py TRACE.jsonl METRICS.prom" in capsys.readouterr().err


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """What the observability smoke writes, from a small traced
    flash-crowd serve and a small metered walk, each its own process."""
    workdir = tmp_path_factory.mktemp("obs")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    commands = [
        ["trace", "--out", str(workdir / "trace.jsonl"), "--format", "jsonl", "--",
         "serve-bench", "--scenario", "flash-crowd", "--tenants", "2",
         "--requests", "60", "--rate", "2000", "--scale", "0.02", "--length", "8",
         "--max-batch", "32"],
        ["metrics", "--out", str(workdir / "metrics.prom"), "--",
         "walk", "--engine", "batch", "--queries", "50", "--length", "8", "--scale", "0.02"],
    ]
    for command in commands:
        subprocess.run([sys.executable, "-m", "repro", *command], check=True, env=env,
                       capture_output=True, timeout=120)
    return workdir / "trace.jsonl", workdir / "metrics.prom"


def test_the_smokes_own_artifacts_pass(artifacts, capsys):
    trace, metrics = artifacts
    assert check.main([str(trace), str(metrics)]) == 0
    assert "serve.step spans" in capsys.readouterr().out


def test_the_script_runs_standalone(artifacts):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(SCRIPT), *map(str, artifacts)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    swapped = subprocess.run([sys.executable, str(SCRIPT), *map(str, artifacts[::-1])],
                             env=env, capture_output=True, text=True, timeout=60)
    assert swapped.returncode != 0
