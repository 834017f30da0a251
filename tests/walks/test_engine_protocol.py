"""The engine protocol, checked once over the whole registry.

Every software engine is a :class:`~repro.walks.engine.PreparedEngine`:
one shared ``run`` (empty check, unpack, start-vertex check, the
engine's array hook, stats fold, ``WalkResults``), one shared
``swap_snapshot`` (snapshot -> prepared kernel -> ``_adopt``), one
registry table.  Each behaviour the protocol promises is asserted here
for all five names, so a new engine inherits the checks by adding one
row to ``ENGINE_ROWS`` — and a structural guard at the bottom keeps the
shared pieces from being re-grown per engine.
"""

import ast
import asyncio
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dynamic import apply_batch, fresh_static_build, sliding_window_trace
from repro.engines import (
    ENGINE_OPTIONS,
    SOFTWARE_ENGINES,
    PreparedEngine,
    prepare_engine,
    run_software_walks,
)
from repro.errors import GraphError, WalkConfigError
from repro.sampling import SAMPLER_MODES
from repro.serve import WalkService
from repro.walks import DeepWalkSpec, EngineStats, Query, WalkResults, make_queries

#: Registry name -> the options this file constructs it with.
ENGINE_ROWS = {
    "batch": {},
    "jit": {},
    "parallel": {"workers": 2},
    "dist": {"shards": 2},
    "reference": {},
}
ENGINE_NAMES = tuple(ENGINE_ROWS)

#: Options each engine does not declare (another engine's).
MISDIRECTED = {
    "batch": ("workers", "shards"),
    "jit": ("backend",),
    "parallel": ("shards",),
    "dist": ("workers",),
    "reference": ("workers",),
}

SEED = 23


@pytest.fixture(scope="module")
def epochs():
    """``(base graph, mutated snapshot, its from-scratch CSR, spec, queries)``
    of one dynamic graph driven through an insert+delete trace."""
    trace = sliding_window_trace(7, edge_factor=4, batch_size=120,
                                 num_batches=3, weighted=True, seed=11)
    dynamic = trace.build_dynamic()
    base = dynamic.snapshot().graph
    for batch in trace.batches:
        apply_batch(dynamic, batch)
    snapshot = dynamic.snapshot()
    static_graph, _ = fresh_static_build(dynamic)
    spec = DeepWalkSpec(max_length=10)
    return base, snapshot, static_graph, spec, make_queries(static_graph, 40, seed=5)


def assert_same_run(a: WalkResults, a_stats: EngineStats,
                    b: WalkResults, b_stats: EngineStats) -> None:
    assert a.num_queries == b.num_queries
    assert a.total_steps == b.total_steps
    for left, right in zip(a.paths, b.paths):
        assert np.array_equal(left, right)
    for field in dataclasses.fields(EngineStats):
        assert getattr(a_stats, field.name) == getattr(b_stats, field.name), field.name


def test_registry_is_one_table_over_one_hierarchy():
    assert set(SOFTWARE_ENGINES) == set(ENGINE_ROWS)
    for name, cls in SOFTWARE_ENGINES.items():
        assert issubclass(cls, PreparedEngine) and cls.name == name
        assert ENGINE_OPTIONS[name] is cls.options
        assert set(ENGINE_ROWS[name]) <= cls.options


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_one_shot_is_prepare_run_close(epochs, engine):
    _, _, graph, spec, queries = epochs
    one_shot_stats, prepared_stats = EngineStats(), EngineStats()
    one_shot, _ = run_software_walks(engine, graph, spec, queries, seed=SEED,
                                     stats=one_shot_stats, **ENGINE_ROWS[engine])
    with prepare_engine(engine, graph, spec, **ENGINE_ROWS[engine]) as prepared:
        results = prepared.run(queries, seed=SEED, stats=prepared_stats)
    assert results.num_queries == len(queries)
    assert_same_run(one_shot, one_shot_stats, results, prepared_stats)


@pytest.mark.parametrize("target", ["csr", "snapshot"])
@pytest.mark.parametrize("sampler", SAMPLER_MODES)
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_swap_equals_fresh_engine(epochs, engine, sampler, target):
    base, snapshot, static_graph, spec, queries = epochs
    options = dict(ENGINE_ROWS[engine], sampler=sampler)
    swap_to = snapshot if target == "snapshot" else static_graph
    swap_stats, fresh_stats = EngineStats(), EngineStats()
    with prepare_engine(engine, base, spec, **options) as swapped:
        swapped.swap_snapshot(swap_to)
        swap_results = swapped.run(queries, seed=SEED, stats=swap_stats)
    with prepare_engine(engine, getattr(swap_to, "graph", swap_to), spec,
                        **options) as fresh:
        fresh_results = fresh.run(queries, seed=SEED, stats=fresh_stats)
    assert_same_run(swap_results, swap_stats, fresh_results, fresh_stats)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_empty_batch_is_empty_and_leaves_stats_alone(epochs, engine):
    _, _, graph, spec, _ = epochs
    stats = EngineStats()
    with prepare_engine(engine, graph, spec, **ENGINE_ROWS[engine]) as prepared:
        results = prepared.run([], seed=SEED, stats=stats)
    assert results.num_queries == 0 and results.total_steps == 0
    assert results.paths == []
    assert stats == EngineStats()


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_out_of_range_start_fails_in_the_parent(epochs, engine, monkeypatch):
    _, _, graph, spec, _ = epochs

    def never(*args):
        raise AssertionError("the array hook ran on an unchecked batch")

    stats = EngineStats()
    with prepare_engine(engine, graph, spec, **ENGINE_ROWS[engine]) as prepared:
        if engine != "reference":  # the scalar loop has no hook; it checks per hop
            monkeypatch.setattr(prepared, "_run_arrays", never)
        with pytest.raises(GraphError, match="out of range"):
            prepared.run([Query(0, 0), Query(1, graph.num_vertices + 7)],
                         seed=SEED, stats=stats)
    if engine != "reference":
        assert stats == EngineStats()


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_misdirected_option_names_the_accepted_set(epochs, engine):
    _, _, graph, spec, queries = epochs
    for option in MISDIRECTED[engine]:
        for entry in (lambda **o: run_software_walks(engine, graph, spec, queries, **o),
                      lambda **o: prepare_engine(engine, graph, spec, **o)):
            with pytest.raises(WalkConfigError, match="does not accept") as excinfo:
                entry(**{option: 2})
            assert option in str(excinfo.value)
            for accepted in SOFTWARE_ENGINES[engine].options:
                assert accepted in str(excinfo.value)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_bad_sampler_names_the_modes_even_off_registry(epochs, engine):
    _, _, graph, spec, _ = epochs
    for build in (SOFTWARE_ENGINES[engine], lambda *a, **o: prepare_engine(engine, *a, **o)):
        with pytest.raises(WalkConfigError, match="sampler") as excinfo:
            build(graph, spec, sampler="bogus", **ENGINE_ROWS[engine])
        for mode in SAMPLER_MODES:
            assert mode in str(excinfo.value)


def test_run_close_only_subclass_serves_without_base_init(epochs):
    """The shape of the benchmark's ``TimedEngine`` and the serving test
    doubles: no ``__init__`` call, only ``run``/``close`` overridden."""
    _, snapshot, graph, spec, _ = epochs

    class Echo(PreparedEngine):
        name = "echo"
        closed = 0

        def run(self, queries, seed=0, stats=None):
            results = WalkResults()
            for query in queries:
                results.add_path([query.start_vertex, query.query_id])
            return results

        def close(self):
            self.closed += 1

    with Echo() as echo:
        assert echo.run([Query(3, 1)]).path_of(0).tolist() == [1, 3]
        with pytest.raises(WalkConfigError, match="does not support snapshot swaps"):
            echo.swap_snapshot(snapshot)
    assert echo.closed == 1

    async def scenario():
        service = WalkService(graph, spec, engine=echo)
        for query_id in (0, 1):  # a double runs after close(): restart is fine
            await service.start()
            results = await asyncio.wait_for(service.submit(2, query_id=query_id),
                                             timeout=30.0)
            assert results.path_of(0).tolist() == [2, query_id]
            await service.stop()

    asyncio.run(scenario())
    assert echo.closed == 3


# --- structural guard -----------------------------------------------------


def _engine_layer_trees():
    """Parsed modules of ``src/repro`` outside ``sampling/`` (where the
    kernel factory and its own tests of it live)."""
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        if "sampling" not in path.relative_to(root).parts:
            yield ast.parse(path.read_text())


def _call_sites(name: str) -> int:
    return sum(
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
        for tree in _engine_layer_trees()
        for node in ast.walk(tree)
    )


def test_shared_pieces_are_written_once():
    """What the protocol shares must stay shared: the request unpack and
    the stats fold have one call site each, kernel construction stays
    behind the snapshot and shared-store hand-offs, and only the base and
    the scalar reference engine define ``swap_snapshot``."""
    assert _call_sites("unpack_queries") == 1
    assert _call_sites("record_run") == 1
    assert 1 <= _call_sites("make_walk_kernel") <= 4
    definitions = [
        node
        for tree in _engine_layer_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    ]
    swappers = [
        cls.name for cls in definitions
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "swap_snapshot"
                for item in cls.body)
    ]
    assert len(swappers) <= 2, swappers
    retired = {"run_walks_jit", "run_walks_jit_prepared", "run_walks_parallel",
               "run_walks_dist"}
    assert not retired & {node.name for node in definitions}
