"""The engine protocol, checked once over the whole registry.

Every software engine is a :class:`~repro.walks.engine.PreparedEngine`:
one shared ``run`` (empty check, unpack, start-vertex check, the
engine's array hook, stats fold, ``WalkResults``), one shared
``swap_snapshot`` (snapshot -> prepared kernel -> ``_adopt``), one
registry table.  Each behaviour the protocol promises is asserted here
for every registered name, so a new engine inherits the checks by adding
one name to ``ENGINE_NAMES`` — and a structural guard at the bottom keeps the
shared pieces from being re-grown per engine.
"""

import ast
import asyncio
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dynamic import apply_batch, sliding_window_trace
from repro.dynamic.bench import rebuild_from_edge_set
from repro.engines import (
    SOFTWARE_ENGINES,
    PreparedEngine,
    prepare_engine,
    run_software_walks,
)
from repro.errors import GraphError, WalkConfigError
from repro.serve import WalkService
from repro.walks import DeepWalkSpec, EngineStats, Query, WalkResults, make_queries

#: Every registry name this file checks.
ENGINE_NAMES = ("batch", "reference")

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
    # The trace replayed into a plain dict: the dynamic graph's own edges
    # are the snapshot's now.
    static_graph, _ = rebuild_from_edge_set(*trace.final_edges(),
                                            dynamic.num_vertices, dynamic.name)
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
    assert set(SOFTWARE_ENGINES) == set(ENGINE_NAMES)
    for name, cls in SOFTWARE_ENGINES.items():
        assert issubclass(cls, PreparedEngine) and cls.name == name


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_one_shot_is_prepare_run_close(epochs, engine):
    _, _, graph, spec, queries = epochs
    one_shot_stats, prepared_stats = EngineStats(), EngineStats()
    one_shot, _ = run_software_walks(engine, graph, spec, queries, seed=SEED,
                                     stats=one_shot_stats)
    with prepare_engine(engine, graph, spec) as prepared:
        results = prepared.run(queries, seed=SEED, stats=prepared_stats)
    assert results.num_queries == len(queries)
    assert_same_run(one_shot, one_shot_stats, results, prepared_stats)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_a_closed_engine_runs_again(epochs, engine):
    """No engine holds anything ``close`` gives back for good: after
    ``close`` (twice) it still runs, and runs the same walks."""
    _, _, graph, spec, queries = epochs
    before_stats, after_stats = EngineStats(), EngineStats()
    prepared = prepare_engine(engine, graph, spec)
    before = prepared.run(queries, seed=SEED, stats=before_stats)
    prepared.close()
    prepared.close()
    after = prepared.run(queries, seed=SEED, stats=after_stats)
    assert_same_run(before, before_stats, after, after_stats)


@pytest.mark.parametrize("target", ["csr", "snapshot"])
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_swap_equals_fresh_engine(epochs, engine, target):
    base, snapshot, static_graph, spec, queries = epochs
    swap_to = snapshot if target == "snapshot" else static_graph
    swap_stats, fresh_stats = EngineStats(), EngineStats()
    with prepare_engine(engine, base, spec) as swapped:
        swapped.swap_snapshot(swap_to)
        swap_results = swapped.run(queries, seed=SEED, stats=swap_stats)
    with prepare_engine(engine, getattr(swap_to, "graph", swap_to), spec) as fresh:
        fresh_results = fresh.run(queries, seed=SEED, stats=fresh_stats)
    assert_same_run(swap_results, swap_stats, fresh_results, fresh_stats)


@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_empty_batch_is_empty_and_leaves_stats_alone(epochs, engine):
    _, _, graph, spec, _ = epochs
    stats = EngineStats()
    with prepare_engine(engine, graph, spec) as prepared:
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
    with prepare_engine(engine, graph, spec) as prepared:
        monkeypatch.setattr(prepared, "_run_arrays", never)
        with pytest.raises(GraphError, match="out of range"):
            prepared.run([Query(0, 0), Query(1, graph.num_vertices + 7)],
                         seed=SEED, stats=stats)
    assert stats == EngineStats()


def test_a_made_batch_runs_without_making_a_query(epochs, monkeypatch):
    """``make_queries`` and a batch engine's ``run`` over what it returns
    construct no :class:`Query`: the batch is two arrays from the start
    draw to the engine's array hook."""
    _, _, graph, spec, _ = epochs
    made = []
    post_init = Query.__post_init__

    def counted(query):
        made.append(query)
        post_init(query)

    monkeypatch.setattr(Query, "__post_init__", counted)
    with prepare_engine("batch", graph, spec) as engine:
        results = engine.run(make_queries(graph, 1000, seed=3), seed=SEED)
    assert results.num_queries == 1000
    assert made == []
    Query(0, 0)  # the count does see a construction
    assert len(made) == 1


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
    behind the snapshot hand-off, only the base and
    the scalar reference engine define ``swap_snapshot``, and no retired
    name is bound anywhere under ``src/repro``."""
    assert _call_sites("unpack_queries") == 1
    assert _call_sites("record_run") == 1
    assert _call_sites("make_walk_kernel") == 0
    assert 1 <= _call_sites("make_kernel") <= 4
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
               "run_walks_dist", "JitEngine", "HybridKernel", "HybridSampler",
               "ParallelWalkEngine", "DistWalkEngine", "WorkerError", "SharedArrayStore",
               "check_batch_spec", "terminates_probabilistically", "StepContext",
               "SampleOutcome", "RandomSource", "sampling_service_cycles",
               "column_burst_words", "_FIXED_COSTS"}
    defined = set()  # every class, function and module name bound anywhere under src
    for _, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert not retired & defined


@pytest.mark.parametrize("module", ["walks/reference.py", "core/sampling_module.py"])
def test_one_scalar_sampling_call(module):
    """The reference loop and the cycle model's Sampling stage each reach
    the sampler through ``draw`` at exactly one call site, and through
    nothing else."""
    (tree,) = [tree for path, tree in _src_trees() if path == module]
    calls = [node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert calls.count("draw") == 1
    assert "sample" not in calls


def _src_trees():
    """``(path under src/repro, parsed module)`` of every source file."""
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root).as_posix(), ast.parse(path.read_text())


def _length_slot_names(tree: ast.AST) -> set[str]:
    """Names a module binds to the ``length_terminations`` position of
    ``STAT_FIELDS``: ``X = STAT_FIELDS.index("length_terminations")`` or
    one target of ``(...) = range(len(STAT_FIELDS))``."""
    from repro.walks.engine import STAT_FIELDS

    by_index = ast.dump(ast.parse('STAT_FIELDS.index("length_terminations")').body[0].value)
    unpacked = ast.dump(ast.parse("range(len(STAT_FIELDS))").body[0].value)
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = ast.dump(node.value)
        for target in node.targets:
            if value == by_index and isinstance(target, ast.Name):
                names.add(target.id)
            elif value == unpacked and isinstance(target, ast.Tuple):
                names.add(target.elts[STAT_FIELDS.index("length_terminations")].id)
    return names


def test_one_walker_clock():
    """Each walker carries its own hop count: ``superstep`` takes no
    scalar step, no spec declares itself step-invariant, and the
    max-length rule lives in ``superstep`` alone — no superstep caller
    counts a length termination of its own.  (The scalar reference
    engine has no superstep: its array hook walks each query whole and
    tallies its own counters.)"""
    from repro.walks.batch import superstep

    assert "step" not in inspect.signature(superstep).parameters
    trees = list(_src_trees())
    assert [path for path, tree in trees if "step_invariant" in ast.unparse(tree)] == []

    counted = set()
    for path, tree in trees:
        slots = _length_slot_names(tree)
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.AugAssign):
                    continue
                target = node.target
                if (isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Name)
                        and target.slice.id in slots) or (
                        isinstance(target, ast.Attribute)
                        and target.attr == "length_terminations"):
                    counted.add((path, function.name))
    assert counted == {("walks/batch.py", "superstep"), ("walks/reference.py", "_run_arrays")}
