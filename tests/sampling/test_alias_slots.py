"""The packed alias slot: one 16-byte record per edge, everywhere.

``pack_alias_slots`` is held to a scalar packer; the kernel that samples
from the records is held to the scalar ``AliasSampler.draw`` on the same
stream; and every place
that carries alias state — a graph's one sampler state, the dynamic
snapshots, an engine swapped onto one — is shown to carry the one record
array, zero-copy, without packing it again.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dynamic import DynamicGraph, apply_batch, sliding_window_trace
from repro.engines import prepare_engine, run_software_walks
from repro.errors import GraphError
from repro.graph import CSRGraph, from_edges, rmat
from repro.graph.alias import build_alias_table
from repro.sampling import AliasSampler, QueryStream, SamplerState
from repro.sampling import vectorized
from repro.sampling.vectorized import (
    ALIAS_SLOT,
    AliasKernel,
    BatchSample,
    QueryStreams,
    graph_alias_slots,
    pack_alias_slots,
    seed_sequence_states,
)
from repro.walks import DeepWalkSpec, make_queries

from row_oracles import pack_slots_scalar


# --- the packer against a scalar packer ------------------------------------


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
def test_pack_matches_the_scalar_packer(make_graph):
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


def test_kernels_of_one_graph_share_one_read_only_record_array(monkeypatch):
    graph = weighted_rmat()
    kernel = AliasKernel()
    kernel.prepare(graph)
    shared = SamplerState.of(graph).alias_slots
    assert kernel._slots is shared and not shared.flags.writeable
    forbid_packing(monkeypatch)
    again = AliasKernel()
    again.prepare(graph)                               # the graph's records, not a rebuild
    assert again._slots is shared
    current = np.flatnonzero(graph.degrees() > 0)
    previous = np.full(current.size, -1, dtype=np.int64)
    degrees = graph.degrees()[current]
    a = kernel.sample(graph, current, previous, None, QueryStreams(1, current), None, degrees)
    b = again.sample(graph, current, previous, None, QueryStreams(1, current), None, degrees)
    assert np.array_equal(a.vertex, b.vertex)
    # The kernel holds the records and nothing beside them.
    assert [name for name, value in vars(kernel).items() if isinstance(value, np.ndarray)] \
        == ["_slots"]


@pytest.mark.parametrize("make_graph", [weighted_rmat, hub_graph, unsorted_graph,
                                        lambda: random_graph(4, False)],
                         ids=["rmat", "hub", "unsorted", "unweighted"])
def test_kernel_moves_where_the_scalar_table_points(make_graph):
    """Same stream, same slot, same compare: the vertex the kernel
    returns is the neighbour at the index the scalar ``AliasSampler.draw``
    (the reference engine's and the cycle model's decision) picks."""
    graph = make_graph()
    sampler = AliasSampler()
    sampler.prepare(graph)
    kernel = AliasKernel()
    kernel.prepare(graph)
    rng = np.random.default_rng(8)
    current = rng.choice(np.flatnonzero(graph.degrees() > 0), size=4000)
    ids = np.arange(current.size)
    batch = kernel.sample(graph, current, np.full(current.size, -1, dtype=np.int64), None,
                          QueryStreams(6, ids), None, graph.degrees()[current])
    states = seed_sequence_states(6, ids).tolist()
    index = np.array([
        sampler.draw(graph, v, graph.degree(v), -1, None, QueryStream(state))[0]
        for state, v in zip(states, current.tolist())
    ])
    assert batch.vertex.dtype == np.int64
    assert np.array_equal(batch.vertex, graph.col[graph.row_ptr[current] + index])
    assert (batch.proposals, batch.neighbor_reads) == (current.size, 2 * current.size)


# --- dynamic snapshots: slice-copied, packed only where rebuilt -------------

_PACKER_SITES = (vectorized, repro.dynamic.state)


def forbid_packing(monkeypatch) -> None:
    """Make every module's reference to the packer fail."""

    def guarded(*args):
        raise AssertionError("alias slots packed where they must be handed over")

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
        # Read before the snapshot makes its own edges the base.
        edges, weights = dynamic.logical_edges()
        snapshot = dynamic.snapshot()
        # One call, over the dirty rows' slots: the rest was slice-copied.
        (rebuilt,) = packed
        assert 0 < rebuilt < snapshot.graph.num_edges // 2
        packed.clear()
        fresh = graph_alias_slots(
            from_edges(edges, num_vertices=dynamic.num_vertices, weights=weights))
        assert snapshot.sampler_state.alias_slots.tobytes() == fresh.tobytes()


def test_a_swap_hands_the_records_over_and_never_packs(monkeypatch):
    dynamic, batches = churned_graph()
    spec = DeepWalkSpec(max_length=12)
    with prepare_engine("batch", dynamic.snapshot().graph, spec) as engine:
        for batch in batches:
            apply_batch(dynamic, batch)
        snapshot = dynamic.snapshot()
        queries = make_queries(snapshot.graph, 48, seed=5)
        with monkeypatch.context() as patch:
            forbid_packing(patch)
            engine.swap_snapshot(snapshot)
            assert engine._kernel._slots is snapshot.sampler_state.alias_slots
            swapped = engine.run(queries, seed=3)
    fresh, _ = run_software_walks("batch", snapshot.graph, spec, queries, seed=3)
    assert all(map(np.array_equal, swapped.paths, fresh.paths))


def test_snapshot_state_holds_no_unpacked_tables():
    snapshot = DynamicGraph(weighted_rmat()).snapshot()
    state = snapshot.sampler_state
    assert state.alias_slots.dtype == ALIAS_SLOT
    assert state.alias_slots.size == snapshot.graph.num_edges
    assert not hasattr(state, "alias_prob") and not hasattr(state, "alias_index")


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
    """Retries belong to the superstep: a kernel's ``sample`` or a scalar
    sampler's ``draw`` under ``sampling/`` holds no ``while`` loop (a
    rejected proposal is reported stalled, and bounded retries are a
    ``for``)."""
    methods = 0
    for path in _sources("sampling"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in ("sample", "draw"):
                methods += 1
                loops = [n for n in ast.walk(node) if isinstance(n, ast.While)]
                assert not loops, f"{path.name}:{loops[0].lineno}"
    assert methods >= 10
