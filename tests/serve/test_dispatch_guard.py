"""Structural guards on the serving layer's one dispatcher.

The dispatcher steps the engine's frontier on the event loop itself: no
thread, no executor hand-off, anywhere under ``serve/``.  No option
selects a dispatcher — and ``max_inflight``, the deleted closed path's
concurrency knob, is gone from the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_THREAD_CONSTRUCTORS = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Timer"}


def _called_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    return names


def test_frontier_path_starts_no_thread_and_uses_no_executor():
    """Every module under ``serve/`` — ``service.py`` included — is on
    the frontier path: the only dispatcher there is."""
    modules = sorted((SRC / "serve").glob("*.py"))
    assert "service.py" in {path.name for path in modules}
    for path in modules:
        name = path.name
        tree = ast.parse(path.read_text())
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


def test_a_metapath_service_runs_the_frontier_and_replays_exactly():
    """MetaPath's edge type follows the hop; each walker carries its own
    hop count, so its walkers share supersteps with walkers of any age
    like every other spec's: frontier-served, no executor thread, and
    every served path equals the offline replay."""
    import asyncio

    import numpy as np

    from repro.graph import load_dataset
    from repro.graph.datasets import assign_metapath_schema
    from repro.serve import ServeConfig, WalkService, replay_paths
    from repro.walks import MetaPathSpec

    graph = assign_metapath_schema(load_dataset("WG", scale=0.05, seed=1, weighted=True),
                                   num_types=2, seed=1)
    spec = MetaPathSpec([0, 1], max_length=12)
    starts = {query_id: query_id % graph.num_vertices for query_id in range(48)}

    async def scenario():
        service = WalkService(graph, spec, engine="batch", seed=5,
                              config=ServeConfig(max_batch=8))
        async with service:
            futures = []
            for query_id, start in starts.items():
                futures.append(service.try_submit(start, query_id=query_id))
                if query_id % 5 == 4:
                    await asyncio.sleep(0)  # later arrivals join walkers mid-walk
            results = await asyncio.gather(*futures)
            return results, service.stats

    results, stats = asyncio.run(scenario())
    # Superstep-served: walkers stay seated across steps, so there are more
    # steps than admission groups (a run-backed step ends all it seated).
    assert stats.supersteps > len(stats.batch_sizes)
    oracle = replay_paths(graph, spec, starts, seed=5)
    lengths = set()
    for query_id, result in zip(starts, results):
        assert np.array_equal(result.path_of(0), oracle[query_id]), query_id
        lengths.add(result.path_of(0).size)
    assert len(lengths) > 2
