"""A/B verdicts for one suite workload between two revisions.

    python3 scripts/compare.py --base REV [--head REV] --workload W [--seed S] [--pairs 10]

Both revisions are checked out into temporary ``git worktree``s (removed
afterwards).  One ``--smoke`` run per tree must print the same
``paths_sha256``; then ``pairs`` pairs of timed runs (the benchmark's own
command, ``--seconds 10 --trace 0``) alternate between the trees,
swapping which goes first each pair.  For every end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the
head's wins, a Mann-Whitney U p-value and a verdict:

* ``better``: at least ten pairs, the head wins at least nine tenths of
  them (ties count for neither) and its median beats the base's by more
  than the base's own interquartile range;
* ``worse``: the head's median is worse by more than the metric's bound;
* ``unresolved``: either side's interquartile range, relative to the
  base median, is wider than the bound, and not every head run beats
  every base run;
* ``unchanged``: anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.stats import mannwhitneyu

ROOT = Path(__file__).resolve().parents[1]

#: Workloads whose timed digest depends on how much work fits in the window.
WINDOWED_DIGESTS = frozenset({"dynamic_churn"})

SIDES = ("base", "head")

#: Fewest pairs a ``better`` verdict may rest on: with fewer, nine tenths
#: of wins comes too easily by chance.
MIN_PAIRS_FOR_GAIN = 10


def trial_dtype(metrics: list[str]) -> np.dtype:
    """One row per timed run, in pair order: its pair, side, digest and metrics."""
    return np.dtype([("pair", np.int32), ("side", "U4"), ("digest", "U64")]
                    + [(name, np.float64) for name in metrics])


def digest_problems(trials: np.ndarray, workload: str) -> list[str]:
    """Timed runs whose ``paths_sha256`` differs from the first timed run's."""
    if workload in WINDOWED_DIGESTS or trials.size == 0:
        return []
    expected = trials["digest"][0]
    return [f"pair {row['pair']} {row['side']}: paths_sha256 {row['digest']} != {expected}"
            for row in trials if row["digest"] != expected]


def summarise(trials: np.ndarray, metric: dict) -> dict:
    """Medians, quartiles, wins, p-value and verdict of one metric."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    base = trials[trials["side"] == "base"][name]
    head = trials[trials["side"] == "head"][name]
    q_base = np.percentile(base, [25, 50, 75])
    q_head = np.percentile(head, [25, 50, 75])
    wins = int(np.sum(sign * (head - base) > 0))
    gain = sign * (q_head[1] - q_base[1])
    scale = abs(q_base[1]) or 1.0
    spread = max(q_base[2] - q_base[0], q_head[2] - q_head[0]) / scale
    every_run_better = bool(np.min(sign * head) > np.max(sign * base))
    if base.size >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * base.size \
            and gain > q_base[2] - q_base[0]:
        verdict = "better"
    elif -gain / scale > bound:
        verdict = "worse"
    elif spread > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    if np.array_equal(base, head):
        p_value = 1.0
    else:
        p_value = float(mannwhitneyu(head, base, alternative="two-sided").pvalue)
    return {"metric": name, "unit": metric["unit"], "base": q_base, "head": q_head,
            "ratio": q_head[1] / q_base[1] if q_base[1] else float("nan"),
            "wins": wins, "pairs": int(base.size), "p": p_value, "verdict": verdict}


def render(summaries: list[dict]) -> str:
    """A markdown table, one row per metric."""
    lines = ["| metric | base median [q1, q3] | head median [q1, q3] "
             "| ratio | wins | p | verdict |", "|---|---|---|---|---|---|---|"]
    for s in summaries:
        cells = [f"{s['metric']} ({s['unit']})"]
        for side in SIDES:
            q1, median, q3 = s[side]
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        cells += [f"{s['ratio']:.3f}x", f"{s['wins']}/{s['pairs']}", f"{s['p']:.2g}",
                  s["verdict"]]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def run_once(tree: Path, command: list[str], arguments: list[str]) -> tuple[str, dict]:
    """One benchmark run in ``tree``: its ``paths_sha256`` and contract metrics."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(command + arguments, cwd=tree, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    digests = [line.split()[2] for line in lines if line.startswith("check paths_sha256 ")]
    try:
        contract = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        contract = {}
    if done.returncode != 0 or not contract.get("correct") or len(digests) != 1:
        raise SystemExit(f"compare: {' '.join(arguments)} in {tree} ended with code "
                         f"{done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return digests[0], {name: spec["value"] for name, spec in contract["metrics"].items()}


def git(*arguments: str) -> str:
    return subprocess.run(["git", *arguments], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def compare(trees: dict[str, Path], declaration: dict, workload: str, seed: int,
            pairs: int) -> np.ndarray:
    """Smoke both trees, then alternate ``pairs`` timed pairs; return the trials."""
    command = declaration["command"]
    selector = ["--workload", workload, "--seed", str(seed)]
    smoke = {side: run_once(trees[side], command, selector + ["--smoke"])[0] for side in SIDES}
    if smoke["base"] != smoke["head"]:
        raise SystemExit(f"compare: --smoke paths_sha256 differ: base {smoke['base']}, "
                         f"head {smoke['head']}")
    print(f"smoke paths_sha256 {smoke['base']} on both trees", flush=True)
    metrics = [metric["name"] for metric in declaration["end_to_end"]]
    trials = np.zeros(2 * pairs, dtype=trial_dtype(metrics))
    timed = selector + ["--seconds", "10", "--trace", "0"]
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for slot, side in enumerate(order):
            digest, values = run_once(trees[side], command, timed)
            row = trials[2 * pair + slot]
            row["pair"], row["side"], row["digest"] = pair, side, digest
            for name in metrics:
                row[name] = values[name]
            print(f"pair {pair} {side}: " + " ".join(f"{name} {values[name]:.6g}"
                                                      for name in metrics), flush=True)
    problems = digest_problems(trials, workload)
    if problems:
        raise SystemExit("compare: timed paths_sha256 differ\n" + "\n".join(problems))
    return trials


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision measured as the parent")
    parser.add_argument("--head", default="HEAD", help="revision measured as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    revisions = {"base": git("rev-parse", args.base), "head": git("rev-parse", args.head)}
    scratch = Path(tempfile.mkdtemp(prefix="compare-"))
    trees: dict[str, Path] = {}
    try:
        for side in SIDES:
            git("worktree", "add", "--detach", str(scratch / side), revisions[side])
            trees[side] = scratch / side
        declaration = json.loads((trees["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [workload["name"] for workload in declaration["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {', '.join(names)}")
        trials = compare(trees, declaration, args.workload, args.seed, args.pairs)
    finally:
        for tree in trees.values():
            git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs: "
          f"base {revisions['base'][:7]}, head {revisions['head'][:7]}\n")
    print(render([summarise(trials, metric) for metric in declaration["end_to_end"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
