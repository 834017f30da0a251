"""Structural guards on the serving layer's two dispatchers.

The open-frontier path steps the engine on the event loop itself: no
thread, no executor hand-off.  The dispatcher follows from the engine
object, so no option may select it — and ``max_inflight``, the closed
path's old concurrency knob, is gone from the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Modules the frontier-served path runs (everything under ``serve/``
#: except the closed dispatcher's home and the offline drivers).
FRONTIER_PATH = ("frontier.py", "items.py", "qos.py", "admission.py", "cache.py", "stats.py")

_THREAD_CONSTRUCTORS = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Timer"}


def _called_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    return names


def test_frontier_path_starts_no_thread_and_uses_no_executor():
    for name in FRONTIER_PATH:
        source = (SRC / "serve" / name).read_text()
        tree = ast.parse(source)
        called = _called_names(tree)
        assert "run_in_executor" not in called, name
        assert not called & _THREAD_CONSTRUCTORS, name
        imported = {
            alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in ([ast.alias(node.module or "")] if isinstance(node, ast.ImportFrom)
                          else node.names)
        }
        assert not imported & {"threading", "concurrent", "multiprocessing"}, name


def test_only_the_closed_dispatcher_hands_off_to_a_thread():
    tree = ast.parse((SRC / "serve" / "service.py").read_text())
    users = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "run_in_executor" in _called_names(function)
    }
    assert users == {"_execute", "_apply_swap"}


def test_max_inflight_is_gone():
    """The cycle model's ``QueryLoader`` keeps its own, unrelated
    ``max_inflight`` bound (``core/``); nothing else under ``src/`` may
    say the word."""
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "core" not in path.relative_to(SRC).parts and "max_inflight" in path.read_text()
    ]
    assert offenders == []


def test_no_option_selects_the_dispatcher():
    from dataclasses import fields

    from repro.serve import ServeConfig

    assert [field.name for field in fields(ServeConfig)] == [
        "max_batch", "max_wait_ms", "queue_depth"]
