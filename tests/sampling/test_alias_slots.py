"""The packed alias slot: one 16-byte record per edge, everywhere.

``pack_alias_slots`` is held to a scalar oracle; the kernel that samples
from the records is held to the scalar ``AliasTable``; and every place
that carries alias state — the kernel's export, the shared-memory store,
the dynamic snapshots, the ``parallel`` and ``dist`` workers — is shown to
carry the one record array, zero-copy, without packing it again.
"""

import ast
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dynamic import DynamicGraph, apply_batch, sliding_window_trace
from repro.engines import prepare_engine, run_software_walks
from repro.errors import GraphError
from repro.graph import CSRGraph, from_edges, rmat
from repro.graph.alias import build_alias_table
from repro.parallel.runtime import worker_context
from repro.parallel.shared_graph import KERNEL_PREFIX, SharedArrayStore, kernel_from_store
from repro.sampling import hybrid, vectorized
from repro.sampling.vectorized import (
    ALIAS_SLOT,
    AliasKernel,
    BatchSample,
    QueryStreams,
    graph_alias_slots,
    pack_alias_slots,
)
from repro.walks import DeepWalkSpec, make_queries

from row_oracles import pack_slots_scalar


# --- the packer against a scalar oracle ------------------------------------


def random_graph(seed: int, weighted: bool) -> CSRGraph:
    """Small random CSR; a third of the vertices have no out-edges."""
    rng = np.random.default_rng((seed, weighted))
    n = int(rng.integers(2, 40))
    sources = np.flatnonzero(rng.random(n) < 0.67)
    edges = [(int(s), int(d)) for s in sources
             for d in np.flatnonzero(rng.random(n) < 0.2)]
    weights = rng.uniform(0.1, 9.0, size=len(edges)) if weighted else None
    return from_edges(edges, num_vertices=n, weights=weights)


def hub_graph() -> CSRGraph:
    """One 5,000-degree row (finished by the scalar tail of the lock-step
    builder) beside short rows."""
    rng = np.random.default_rng(5)
    edges = [(0, d) for d in range(1, 5001)] + [(d, 0) for d in range(1, 60)]
    return from_edges(edges, num_vertices=5001,
                      weights=rng.pareto(1.5, size=len(edges)) + 0.01)


def unsorted_graph() -> CSRGraph:
    """Rows in arrival order, a repeated neighbour among them."""
    graph = from_edges(
        [(0, 3), (0, 1), (0, 3), (0, 2), (2, 1), (2, 0), (3, 3)],
        num_vertices=4,
        weights=[1.0, 5.0, 0.5, 2.0, 3.0, 1.0, 1.0],
        sort_neighbors=False,
    )
    assert not graph.cols_sorted
    return graph


GRAPHS = {
    **{f"weighted-{seed}": lambda seed=seed: random_graph(seed, True) for seed in range(12)},
    **{f"unweighted-{seed}": lambda seed=seed: random_graph(seed, False) for seed in range(10)},
    "one-edge": lambda: from_edges([(0, 1)], num_vertices=2, weights=[2.5]),
    "empty": lambda: from_edges([], num_vertices=3),
    "hub": hub_graph,
    "unsorted": unsorted_graph,
}


@pytest.mark.parametrize("make_graph", GRAPHS.values(), ids=GRAPHS.keys())
def test_pack_matches_the_scalar_oracle(make_graph):
    graph = make_graph()
    table = build_alias_table(graph)
    slots = pack_alias_slots(table.prob, table.alias, graph.row_ptr, graph.col)
    assert slots.dtype == ALIAS_SLOT and slots.shape == (graph.num_edges,)
    oracle = pack_slots_scalar(table.prob, table.alias, graph.row_ptr, graph.col)
    assert slots["prob"].tobytes() == table.prob.tobytes()  # bit-equal, not just ==
    assert slots["prob"].tolist() == [record[0] for record in oracle]
    assert slots["col"].tolist() == [record[1] for record in oracle] == graph.col.tolist()
    assert slots["alias_col"].tolist() == [record[2] for record in oracle]
    row_start = np.repeat(graph.row_ptr[:-1], graph.degrees())
    assert np.array_equal(slots["alias_col"], graph.col[row_start + table.alias])
    assert graph_alias_slots(graph).tobytes() == slots.tobytes()


def test_record_is_sixteen_bytes_of_float64_and_two_int32():
    assert ALIAS_SLOT.itemsize == 16
    assert ALIAS_SLOT.names == ("prob", "col", "alias_col")
    assert [ALIAS_SLOT[name].str for name in ALIAS_SLOT.names] == ["<f8", "<i4", "<i4"]


def test_ids_wider_than_int32_are_refused():
    """A refusal naming the limit, not a second layout.  The row pointer is
    a zero-stride broadcast: 2**31 + 1 entries, eight bytes of memory."""
    too_many = np.broadcast_to(np.int64(0), (2**31 + 1,))
    empty_f, empty_i = np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    with pytest.raises(GraphError, match="2,147,483,647"):
        pack_alias_slots(empty_f, empty_i, too_many, empty_i)


# --- the kernel over the records --------------------------------------------


def weighted_rmat() -> CSRGraph:
    graph = rmat(8, edge_factor=8, seed=3)
    rng = np.random.default_rng(3)
    return graph.with_weights(rng.pareto(1.2, size=graph.num_edges) + 0.05)


def test_state_round_trip_is_zero_copy_and_read_only():
    graph = weighted_rmat()
    kernel = AliasKernel()
    kernel.prepare(graph)
    exported = kernel.state_arrays()
    assert list(exported) == ["alias_slots"]
    shared = exported["alias_slots"].copy()
    shared.setflags(write=False)
    loaded = AliasKernel()
    loaded.load_state({"alias_slots": shared})
    assert loaded.state_arrays()["alias_slots"] is shared
    current = np.flatnonzero(graph.degrees() > 0)
    previous = np.full(current.size, -1, dtype=np.int64)
    a = kernel.sample(graph, current, previous, None, QueryStreams(1, current), None)
    b = loaded.sample(graph, current, previous, None, QueryStreams(1, current), None)
    assert np.array_equal(a.vertex, b.vertex)
    assert not shared.flags.writeable
    # The kernel holds the records and nothing beside them.
    assert [name for name, value in vars(kernel).items() if isinstance(value, np.ndarray)] \
        == ["_slots"]


@pytest.mark.parametrize("make_graph", [weighted_rmat, hub_graph, unsorted_graph,
                                        lambda: random_graph(4, False)],
                         ids=["rmat", "hub", "unsorted", "unweighted"])
def test_kernel_moves_where_the_scalar_table_points(make_graph):
    """Same uniforms, same slot, same compare: the vertex the kernel
    returns is the neighbour at the index ``AliasTable.sample_index``
    picks."""
    graph = make_graph()
    table = build_alias_table(graph)
    kernel = AliasKernel()
    kernel.prepare(graph)
    rng = np.random.default_rng(8)
    current = rng.choice(np.flatnonzero(graph.degrees() > 0), size=4000)
    ids = np.arange(current.size)
    batch = kernel.sample(graph, current, np.full(current.size, -1, dtype=np.int64), None,
                          QueryStreams(6, ids), None)
    twin = QueryStreams(6, ids)
    u1, u2 = twin.uniforms(), twin.uniforms()
    index = np.array([
        table.sample_index(int(graph.row_ptr[v]), graph.degree(int(v)), float(a), float(b))
        for v, a, b in zip(current, u1, u2)
    ])
    assert batch.vertex.dtype == np.int64
    assert np.array_equal(batch.vertex, graph.col[graph.row_ptr[current] + index])
    assert (batch.proposals, batch.neighbor_reads) == (current.size, 2 * current.size)


# --- the shared-memory store keeps a record array's fields ------------------


def _describe_attached(handle, pipe) -> None:
    """Spawned-process side of the store round trip."""
    store = SharedArrayStore.attach(handle)
    try:
        view = store.arrays()["slots"]
        pipe.send({
            "names": view.dtype.names,
            "itemsize": view.dtype.itemsize,
            "writeable": bool(view.flags.writeable),
            "owndata": bool(view.flags.owndata),
            "prob": view["prob"].tolist(),
            "col": view["col"].tolist(),
            "alias_col": view["alias_col"].tolist(),
            "plain": store.arrays()["plain"].tolist(),
        })
        del view
    finally:
        store.close()


def test_record_arrays_round_trip_through_the_store_with_their_fields():
    """``dtype.str`` of a record dtype is ``'|V16'``; a store that recorded
    it handed workers opaque bytes (``view["prob"]`` raised)."""
    graph = weighted_rmat()
    slots = graph_alias_slots(graph)[:50]
    with SharedArrayStore.create({"slots": slots, "plain": np.arange(5)}) as store:
        local = store.arrays()["slots"]
        assert local.dtype == ALIAS_SLOT and not local.flags.writeable
        assert local.tobytes() == slots.tobytes()
        context = multiprocessing.get_context("spawn")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_describe_attached, args=(store.handle, sender))
        child.start()
        try:
            assert receiver.poll(60), "spawned reader never answered"
            seen = receiver.recv()
        finally:
            child.join(30)
        assert child.exitcode == 0
    assert seen["names"] == ALIAS_SLOT.names and seen["itemsize"] == 16
    assert not seen["writeable"] and not seen["owndata"]
    for name in ALIAS_SLOT.names:
        assert seen[name] == slots[name].tolist()
    assert seen["plain"] == [0, 1, 2, 3, 4]


# --- dynamic snapshots: slice-copied, packed only where rebuilt -------------

_PACKER_SITES = (vectorized, hybrid, repro.dynamic.state)


def forbid_packing(monkeypatch, allowed_pid: int | None = None) -> None:
    """Make every module's reference to the packer fail (outside
    ``allowed_pid``, when given)."""
    real = vectorized.pack_alias_slots

    def guarded(*args):
        assert os.getpid() == allowed_pid, "alias slots packed where they must be handed over"
        return real(*args)

    for module in _PACKER_SITES:
        monkeypatch.setattr(module, "pack_alias_slots", guarded)


def churned_graph():
    trace = sliding_window_trace(9, edge_factor=4, batch_size=40, num_batches=3,
                                 weighted=True, seed=11)
    dynamic = trace.build_dynamic()
    # A reader asks at epoch 0; every later epoch then maintains the slots.
    assert dynamic.snapshot().sampler_state.alias_slots.dtype == ALIAS_SLOT
    return dynamic, trace.batches


def test_update_packs_only_the_rebuilt_rows(monkeypatch):
    dynamic, batches = churned_graph()
    packed = []
    real = vectorized.pack_alias_slots

    def counted(prob, alias, row_ptr, col):
        packed.append(prob.size)
        return real(prob, alias, row_ptr, col)

    monkeypatch.setattr(repro.dynamic.state, "pack_alias_slots", counted)
    for batch in batches:
        apply_batch(dynamic, batch)
        snapshot = dynamic.snapshot()
        # One call, over the dirty rows' slots: the rest was slice-copied.
        (rebuilt,) = packed
        assert 0 < rebuilt < snapshot.graph.num_edges // 2
        packed.clear()
        edges, weights = dynamic.logical_edges()
        fresh = graph_alias_slots(
            from_edges(edges, num_vertices=dynamic.num_vertices, weights=weights))
        assert snapshot.sampler_state.alias_slots.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("sampler", ["default", "auto"])
def test_a_swap_hands_the_records_over_and_never_packs(monkeypatch, sampler):
    dynamic, batches = churned_graph()
    spec = DeepWalkSpec(max_length=12)
    with prepare_engine("batch", dynamic.snapshot().graph, spec, sampler=sampler) as engine:
        for batch in batches:
            apply_batch(dynamic, batch)
        snapshot = dynamic.snapshot()
        queries = make_queries(snapshot.graph, 48, seed=5)
        with monkeypatch.context() as patch:
            forbid_packing(patch)
            engine.swap_snapshot(snapshot)
            held = engine._kernel.state_arrays()["alias_slots"]
            assert held is snapshot.sampler_state.alias_slots
            swapped = engine.run(queries, seed=3)
    fresh, _ = run_software_walks("batch", snapshot.graph, spec, queries, seed=3,
                                  sampler=sampler)
    assert all(map(np.array_equal, swapped.paths, fresh.paths))


def test_snapshot_state_holds_no_unpacked_tables():
    state = DynamicGraph(weighted_rmat()).snapshot().sampler_state
    assert state.alias_slots.dtype == ALIAS_SLOT
    assert state.num_slots == state.graph.num_edges
    assert not hasattr(state, "alias_prob") and not hasattr(state, "alias_index")


# --- workers attach the records; they never pack ----------------------------


@pytest.mark.skipif(worker_context().get_start_method() != "fork",
                    reason="the worker-side patches are inherited by fork")
@pytest.mark.parametrize("engine,options", [("parallel", {"workers": 2}),
                                            ("dist", {"shards": 2})])
@pytest.mark.parametrize("sampler", ["default", "auto"])
def test_workers_hold_a_view_of_their_segment_and_never_pack(
    monkeypatch, engine, options, sampler
):
    real_load = kernel_from_store

    def checked_load(spec, sampler_mode, store):
        kernel = real_load(spec, sampler_mode, store)
        held = kernel.state_arrays()["alias_slots"]
        assert held.dtype == ALIAS_SLOT
        assert not held.flags.owndata and not held.flags.writeable
        assert np.shares_memory(held, store.arrays()[KERNEL_PREFIX + "alias_slots"])
        return kernel

    forbid_packing(monkeypatch, allowed_pid=os.getpid())
    monkeypatch.setattr(f"repro.{engine}.worker.kernel_from_store", checked_load)
    graph = weighted_rmat()
    spec = DeepWalkSpec(max_length=10)
    queries = make_queries(graph, 64, seed=2)
    with prepare_engine(engine, graph, spec, sampler=sampler, **options) as pool:
        results = pool.run(queries, seed=4)  # a failed worker check raises here
        pool.swap_snapshot(graph)  # workers adopt a new segment the same way
        again = pool.run(queries, seed=4)
    baseline, _ = run_software_walks("batch", graph, spec, queries, seed=4, sampler=sampler)
    assert all(map(np.array_equal, results.paths, baseline.paths))
    assert all(map(np.array_equal, again.paths, baseline.paths))


# --- structure: one state, one contract -------------------------------------


def _sources(*parts):
    return sorted(Path(repro.__file__).parent.joinpath(*parts).rglob("*.py"))


def test_unpacked_alias_tables_are_named_nowhere():
    """``alias_prob`` / ``alias_index`` — as a name, an attribute, a state
    key or in prose — are gone from ``src/``; the scalar ``AliasTable``
    (``graph/alias.py``, for the reference engine and the cycle model)
    calls its arrays ``prob`` and ``alias``."""
    for path in _sources():
        text = path.read_text()
        for name in ("alias_prob", "alias_index"):
            assert name not in text, f"{name} in {path}"


def test_superstep_never_reads_the_column_list():
    import repro.walks.batch

    tree = ast.parse(Path(repro.walks.batch.__file__).read_text())
    (superstep,) = [node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "superstep"]
    for node in ast.walk(superstep):
        assert getattr(node, "attr", None) not in ("col", "row_ptr"), ast.unparse(node)
    assert "vertex" in BatchSample.__dataclass_fields__
    assert "choice" not in BatchSample.__dataclass_fields__


def test_no_sort_picks_a_reservoir_winner():
    for path in _sources("sampling"):
        assert "lexsort" not in path.read_text(), path


def test_no_sampler_loops_until_it_decides():
    """Retries belong to the superstep: a ``sample`` method under
    ``sampling/`` holds no ``while`` loop (a rejected proposal is reported
    stalled, and bounded retries are a ``for``)."""
    methods = 0
    for path in _sources("sampling"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "sample":
                methods += 1
                loops = [n for n in ast.walk(node) if isinstance(n, ast.While)]
                assert not loops, f"{path.name}:{loops[0].lineno}"
    assert methods >= 10
