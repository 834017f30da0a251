"""Command line of the benchmark suite.

One workload, in this process (the form ``BENCHMARK.json`` declares)::

    python3 benchmarks/suite/run.py --workload deepwalk_batch --seed 1 --seconds 10 --trace 0

Every workload, each in a fresh subprocess so ``peak_rss_mb`` is its own::

    python3 benchmarks/suite/run.py [--seed N] [--seconds S] [--trace 1] [--smoke]

A workload prints every metric by name with its unit, its correctness
checks, a ``report`` JSON line with everything it measured, and last the
one JSON object the contract asks for.  It exits non-zero when a check
fails or an operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from harness import (
    OUT_DIR,
    REPO_ROOT,
    CheckFailed,
    HostProbe,
    Spans,
    host_block,
    host_warnings,
    measure_setup,
    peak_rss_mb,
)

#: The two end-to-end metrics only one workload has.  ``BENCHMARK.json``
#: cannot hold them: the driver reads every end-to-end metric declared
#: there from every workload, and takes no zero.  The untraced run of
#: their workload measures and prints them, and ``aa.py`` holds them to
#: these bounds.
SUITE_ONLY = {
    "slo_ok_frac": {"unit": "fraction", "better": "higher", "bound": 0.03},
    "updates_per_s": {"unit": "ops/s", "better": "higher", "bound": 0.08},
}


def load_declaration() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def units(declaration: dict) -> dict[str, str]:
    """Unit of every metric a run prints; ``raw.<name>`` has its metric's unit."""
    table = {name: spec["unit"] for name, spec in SUITE_ONLY.items()}
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        table[metric["name"]] = metric["unit"]
    table.update({"raw." + name: unit for name, unit in table.items()})
    table["host_slowdown"] = "ratio"
    return table


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Run one workload here; print its lines; return the exit code."""
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"benchmark: no program to measure under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    declaration = load_declaration()
    unit_of = units(declaration)
    window = 0.0 if smoke else seconds
    if WORKLOADS[name].ONE_CPU:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    host = host_block()
    probe = HostProbe(smoke)
    probe_before = probe.read(3) * 1e3

    def factory():
        return WORKLOADS[name](seed, smoke, probe)

    if trace:
        spans = Spans()
        workload = factory()
        workload.setup(spans)
        metrics, attempted, failed = workload.trace(window, spans)
        spans.write(OUT_DIR / f"trace-{name}.jsonl")
    else:
        workload, setup = measure_setup(factory, probe)
        metrics, attempted, failed = workload.measure(window)
        metrics.update(setup)
        metrics["host_slowdown"] = probe.slowdown()
        # Read before the checks: their arrays are not the program's.
        metrics["peak_rss_mb"] = peak_rss_mb()
    try:
        info = workload.check()
        problem = None
    except CheckFailed as error:
        info, problem = {}, str(error)
    workload.close()
    probe_after = probe.read(3) * 1e3
    if trace:
        metrics["harness.probe_ms.before"] = probe_before
        metrics["harness.probe_ms.after"] = probe_after
    load_end = os.getloadavg()[0]
    warnings = host_warnings(host, load_end, probe_before, probe_after)

    print(f"workload {name} seed {seed} seconds {window:g} trace {int(trace)}")
    print("host", json.dumps({**host, "loadavg_1m_end": load_end}))
    for metric in sorted(metrics):
        print(f"{metric} {metrics[metric]:.6g} {unit_of[metric]}")
    print(f"probe_ms before {probe_before:.3f} after {probe_after:.3f}")
    print(f"ops_attempted {attempted} ops_failed {failed}")
    for key, value in info.items():
        print(f"check {key} {value}")
    print("checks", "FAILED: " + problem if problem else "passed")
    for warning in warnings:
        print("warning:", warning)

    declared = declaration["per_layer" if trace else "end_to_end"]
    contract = {
        "correct": problem is None,
        "attempted": attempted,
        "failed": failed,
        # The driver wants every declared metric from every workload.  A layer
        # this workload never enters spent no time and did no work: 0 here,
        # and left out of the printed lines and the report.
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }
    report = {
        "workload": name, "seed": seed, "trace": int(trace), "host": host, "warnings": warnings,
        "correct": problem is None, "problem": problem, "checks": info,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    print(json.dumps({"report": report}))
    print(json.dumps(contract))
    return 0 if problem is None and failed == 0 else 1


def run_in_subprocess(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                      echo: bool = True) -> dict:
    """One workload in a fresh interpreter; returns its ``report``."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, cwd=REPO_ROOT, timeout=900)
    if echo:
        sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith('{"report"'):
        raise SystemExit(f"benchmark: workload {name} ended with code {done.returncode} "
                         "and no report")
    report = json.loads(lines[-2])["report"]
    report["exit_code"] = done.returncode
    return report


def run_suite(seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Every declared workload, untraced and (with ``trace``) traced."""
    declaration = load_declaration()
    unit_of = units(declaration)
    suite = {}
    for workload in declaration["workloads"]:
        name = workload["name"]
        suite[name] = {"end_to_end": run_in_subprocess(name, seed, seconds, False, smoke)}
        if trace:
            suite[name]["per_layer"] = run_in_subprocess(name, seed, seconds, True, smoke)
    print()
    print(f"{'workload':<16} {'metric':<34} {'value':>14} unit")
    for name, runs in suite.items():
        for report in runs.values():
            for metric in sorted(report["metrics"]):
                print(f"{name:<16} {metric:<34} {report['metrics'][metric]:>14.6g} "
                      f"{unit_of[metric]}")
    reports = [report for runs in suite.values() for report in runs.values()]
    failed = [f"{r['workload']} (trace {r['trace']})" for r in reports if r["exit_code"] != 0]
    print("suite", "FAILED: " + ", ".join(failed) if failed else "passed")
    print(json.dumps({"suite": suite}))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: take the per-layer traced run, instead of the untraced one "
                             "(one workload) or after it (every workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs and three calls per workload")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else load_declaration()["run_seconds"]
    if args.workload:
        return run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    return run_suite(args.seed, seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
