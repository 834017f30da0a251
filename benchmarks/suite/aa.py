"""A/A check: do sets of runs of the *same* code agree within the bounds?

Runs K sets of N full suite runs (default 2 x 5).  Run ``i`` of every set
uses seed ``i``, as the driver's acceptance runs do, so a set's spread
holds what the seed changes as well as what the host does.  Per workload
and end-to-end metric it prints each set's median, the gap between set
medians, each set's quartile spread, the spread of the same runs as the
clock read them (before the host's slowdown is divided out) and the
bound.  It fails when a gap exceeds its bound: a metric that cannot tell
the code from itself cannot gate a change.  A spread wider than the bound
is marked ``wide``: the driver refuses a benchmark on that.  ``AA.md`` is
this script's output on the builder's host.

    python3 benchmarks/suite/aa.py [--sets 2] [--runs 5] [--seconds S] [--out AA.md]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from harness import host_block
from run import SUITE_ONLY, load_declaration, run_in_subprocess


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def collect(workloads: list[str], sets: int, runs: int, seconds: float):
    """``values[workload][metric][set]`` (one value per run) and the number
    of host warnings; ``(None, 0)`` as soon as a workload fails."""
    values: dict = {w: {} for w in workloads}
    warnings = 0
    for set_index in range(sets):
        for run_index in range(runs):
            for workload in workloads:
                report = run_in_subprocess(workload, run_index + 1, seconds, trace=False,
                                           smoke=False, echo=False)
                if report["exit_code"] != 0:
                    print(f"aa: {workload} failed: {report['problem']}", file=sys.stderr)
                    return None, 0
                warnings += len(report["warnings"])
                for metric, value in report["metrics"].items():
                    per_set = values[workload].setdefault(metric, [[] for _ in range(sets)])
                    per_set[set_index].append(value)
                print(f"aa: set {set_index + 1} run {run_index + 1} {workload} done",
                      file=sys.stderr)
    return values, warnings


def percents(values) -> str:
    return " / ".join(f"{value:.1%}" for value in values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", help="also write the table to this file")
    args = parser.parse_args(argv)
    declaration = load_declaration()
    seconds = args.seconds if args.seconds is not None else declaration["run_seconds"]
    gated = {m["name"]: m for m in declaration["end_to_end"]}
    gated.update(SUITE_ONLY)
    workloads = [w["name"] for w in declaration["workloads"]]

    values, warnings = collect(workloads, args.sets, args.runs, seconds)
    if values is None:
        return 1
    lines = [
        "# A/A record of the benchmark suite",
        "",
        f"{args.sets} sets of {args.runs} runs of one tree, {seconds:g} s windows, seeds "
        f"1..{args.runs} in every set; host `{json.dumps(host_block())}`; "
        f"{warnings} host warnings over all runs.",
        "",
        "`gap` is the largest difference between two set medians as a share of the first; "
        "`spread` is each set's (Q3 - Q1) / median, and `as read` the spread of the same runs "
        "before the host's slowdown is divided out (blank where the metric is reported as "
        "read).  A row fails when its gap exceeds the bound; `wide` marks a spread beyond it.",
        "",
        "| workload | metric | unit | set medians | gap | spreads | as read | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    failures = 0
    for workload in workloads:
        for metric, spec in gated.items():
            if metric not in values[workload]:
                continue
            sets = values[workload][metric]
            medians = [statistics.median(s) for s in sets]
            gap = max(abs(m - medians[0]) / medians[0] for m in medians)
            spreads = [spread(s) for s in sets] if args.runs >= 2 else [0.0]
            as_read = values[workload].get("raw." + metric)
            verdict = "FAIL" if gap > spec["bound"] else "ok"
            failures += verdict == "FAIL"
            if max(spreads) > spec["bound"]:
                verdict += ", wide"
            lines.append(
                f"| {workload} | {metric} | {spec['unit']} | "
                + " / ".join(f"{m:.6g}" for m in medians)
                + f" | {gap:.1%} | {percents(spreads)} | "
                + (percents(spread(s) for s in as_read) if as_read and args.runs >= 2 else "")
                + f" | {spec['bound']:.0%} | {verdict} |")
    lines += ["", f"{failures} failing rows."]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
