"""Which functions of ``src/repro`` no entry point ever calls.

One process records every ``src/repro`` code object that is called,
through ``sys.setprofile`` and ``threading.setprofile`` hooks, while it
runs four sets of entry points:

* the CLI smokes of ``scripts/check.sh`` plus ``repro lint`` (text and
  JSON), each through ``repro.cli.main`` in this process;
* every ``examples/*.py`` script except the ``common.py`` helper;
* all ``EXPERIMENTS`` at their tier-1 sizes, through
  ``tests/bench/test_experiments.py``, plus ``repro experiment tab1``
  through the CLI;
* the five workloads of ``benchmarks/suite`` in ``--smoke``, untraced and
  traced.

An AST pass then lists every ``def`` under ``src/repro`` with its lines.
The report prints each file's unreached functions with their line
counts, then the totals.  A nested function inside an unreached one is
counted as a function, but its lines only once, in its parent.  It is a
diagnostic, not a CI step: a run takes about 7.5 minutes on 2 CPUs, most
of it (5.7 minutes) in the experiment tests under the profiler.

    PYTHONPATH=src python scripts/reachability.py

It exits 1 when an entry point fails, since its map is then short.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
SUITE = ROOT / "benchmarks" / "suite"

#: Every ``(filename, first line)`` of a ``src/repro`` code object called.
_called: set[tuple[str, int]] = set()
_prefix = str(SOURCE) + os.sep


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_prefix):
            _called.add((code.co_filename, code.co_firstlineno))


def cli_smokes(workdir: Path) -> list[list[str]]:
    """The ``repro`` invocations of ``scripts/check.sh``, in its order."""
    flash = ["--scenario", "flash-crowd", "--tenants", "2",
             "--requests", "200", "--rate", "2000", "--scale", "0.05",
             "--length", "16", "--max-batch", "64"]
    graph = ["--algorithm", "DeepWalk", "--engine", "batch", "--queries", "200",
             "--length", "20"]
    return [
        ["lint", "src/repro"],
        ["lint", "--format", "json", "src/repro"],
        ["lint", "--select", "RW101", "src/repro"],
        ["serve-bench", "--requests", "400", "--scale", "0.05", "--length", "40"],
        ["serve-bench", "--algorithm", "PPR", "--requests", "400", "--rate", "4000",
         "--scale", "0.05", "--length", "40", "--max-batch", "64"],
        ["serve-bench", *flash],
        ["serve-bench", "--algorithm", "MetaPath", *flash],
        ["serve-bench", "--engine", "reference", *flash],
        ["mutate-bench", "--scale", "9", "--batch-size", "200", "--batches", "6",
         "--queries", "256", "--length", "40"],
        ["mutate-bench", "--scale", "10", "--batch-size", "2500", "--batches", "3",
         "--queries", "256", "--length", "40"],
        ["mutate-bench", "--algorithm", "Node2Vec", "--scale", "9", "--batch-size", "200",
         "--batches", "6", "--queries", "256", "--length", "40"],
        ["mutate-bench", "--algorithm", "Node2Vec-reservoir", "--scale", "9", "--batch-size",
         "200", "--batches", "6", "--queries", "256", "--length", "40"],
        ["info"],
        ["walk", "--engine", "sim", "--algorithm", "Node2Vec", "--dataset", "WG",
         "--scale", "0.05", "--queries", "64", "--length", "16", "--streaming", "--trace"],
        ["walk", "--engine", "sim", "--pipelines", "1", "--queries", "16", "--length", "8",
         "--scale", "0.05"],
        ["walk", *graph, "--dataset", str(workdir / "rmat8.npz")],
        ["walk", *graph, "--dataset", str(workdir / "rmat8.el")],
        ["trace", "--out", str(workdir / "sample_trace.jsonl"), "--format", "jsonl", "--",
         "serve-bench", *flash],
        ["metrics", "--out", str(workdir / "sample_metrics.prom"), "--",
         "walk", "--engine", "batch", "--queries", "200", "--length", "20",
         "--scale", "0.05"],
    ]


def run_cli(workdir: Path) -> None:
    from repro.cli import main
    from repro.graph import rmat, save_edge_list, save_npz, thunderrw_weights

    graph = rmat(8, 8, seed=1, name="rmat8")
    graph = graph.with_weights(thunderrw_weights(graph, seed=1))
    save_npz(graph, workdir / "rmat8.npz")
    save_edge_list(graph, workdir / "rmat8.el")
    for argv in cli_smokes(workdir):
        _entry(" ".join(["repro", *argv]), lambda argv=argv: main(argv))
    # check.sh reads the observability smoke's two files back.
    from repro.obs.exporters import parse_prometheus, replay_jsonl

    _entry("replay_jsonl", lambda: replay_jsonl(workdir / "sample_trace.jsonl"))
    _entry("parse_prometheus",
           lambda: parse_prometheus((workdir / "sample_metrics.prom").read_text()))


def run_examples(workdir: Path) -> None:
    examples = ROOT / "examples"
    sys.path.insert(0, str(examples))
    for script in sorted(examples.glob("*.py")):
        if script.name == "common.py":
            continue

        def run(script=script):
            sys.argv = [str(script)]
            runpy.run_path(str(script), run_name="__main__")

        _entry(f"examples/{script.name}", run)


def run_experiments(workdir: Path) -> None:
    import pytest

    from repro.cli import main

    _entry("repro experiment tab1", lambda: main(["experiment", "tab1"]))
    _entry("tests/bench/test_experiments.py", lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests/bench/test_experiments.py")]))


def run_suite(workdir: Path) -> None:
    sys.path.insert(0, str(SUITE))
    from run import run_workload
    from workloads import WORKLOADS

    cpus = os.sched_getaffinity(0)
    for name in WORKLOADS:
        for trace in (False, True):
            _entry(f"suite {name} --smoke --trace {int(trace)}",
                   lambda name=name, trace=trace: run_workload(name, 1, 0.0, trace, True))
            os.sched_setaffinity(0, cpus)


_failures: list[str] = []


def _entry(label: str, call) -> None:
    started = time.perf_counter()
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            result = call()
        code = result if isinstance(result, int) else 0
    except SystemExit as exc:
        code = exc.code
    except Exception:  # noqa: BLE001 - a failed entry shortens the map; report it
        code = "raised:\n" + traceback.format_exc()
    seconds = time.perf_counter() - started
    if code not in (None, 0):
        _failures.append(label)
        print(f"FAILED {label} ({code})\n{sink.getvalue()[-2000:]}", file=sys.stderr)
    print(f"  {seconds:7.1f}s  {label}", file=sys.stderr)


def functions(path: Path) -> list[tuple[str, int, int, int | None]]:
    """``(qualified name, first line, line count, parent index)`` of every def."""
    found: list[tuple[str, int, int, int | None]] = []

    def visit(node, prefix: str, parent: int | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((prefix + child.name, first,
                              child.end_lineno - first + 1, parent))
                visit(child, prefix + child.name + ".", len(found) - 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", parent)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return found


def report() -> int:
    total_functions = total_unreached = total_lines = 0
    for path in sorted(SOURCE.rglob("*.py")):
        defs = functions(path)
        total_functions += len(defs)
        unreached = {i for i, (_, first, _, _) in enumerate(defs)
                     if (str(path), first) not in _called}
        if not unreached:
            continue
        lines = sum(count for i, (_, _, count, parent) in enumerate(defs)
                    if i in unreached and parent not in unreached)
        total_unreached += len(unreached)
        total_lines += lines
        print(f"{path.relative_to(SOURCE.parent)}: {len(unreached)} functions, {lines} lines")
        for i in sorted(unreached):
            name, first, count, _ = defs[i]
            print(f"    {first:5d}  {count:4d}  {name}")
    print(f"\ntotal: {total_unreached} of {total_functions} functions unreached, "
          f"{total_lines} lines")
    return 1 if _failures else 0


def main() -> int:
    sys.path.insert(0, str(SOURCE.parent))
    runners = {"cli": run_cli, "examples": run_examples,
               "experiments": run_experiments, "suite": run_suite}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        os.chdir(ROOT)
        threading.setprofile(_hook)
        sys.setprofile(_hook)
        try:
            for name, run in runners.items():
                print(f"== {name}", file=sys.stderr)
                if name == "examples":
                    # trace_flash_crowd.py writes its files into the cwd.
                    os.chdir(workdir)
                run(workdir)
                os.chdir(ROOT)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
    if _failures:
        print(f"{len(_failures)} entry point(s) failed: {', '.join(_failures)}",
              file=sys.stderr)
    return report()


if __name__ == "__main__":
    sys.exit(main())
