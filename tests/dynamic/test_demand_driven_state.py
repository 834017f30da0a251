"""A snapshot carries what its readers read — and nothing else.

A graph's ``SamplerState`` builds a member on its first read and every
later epoch's snapshot then carries it.  Over seeded update traces and
random ask schedules this pins the whole contract: a held member equals
a from-scratch build byte for byte at every epoch, a member is built
from scratch at most once per dynamic graph and never unasked, held
stays held, and kernels that read nothing cost nothing.  The apply
path's one-pass base-membership search is held to the scalar
``has_edge``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dynamic import DynamicGraph, sliding_window_trace
from repro.dynamic.workload import apply_batch
from repro.engines import prepare_engine
from repro.errors import DynamicGraphError
from repro.graph import from_edges
from repro.obs import MetricsRegistry, dynamic_graph_into
from repro.obs.trace import tracing
from repro.sampling import ReservoirSampler, SamplerState
from repro.sampling.vectorized import ReservoirKernel, UniformKernel
from repro.walks import DeepWalkSpec, Node2VecSpec, PPRSpec, make_queries

#: 27 sliding-window traces, weighted on even seeds.
SEEDS = range(27)
NEVER = 99
#: Everything a sampler state can hold.
MEMBER_NAMES = ("alias_slots", "edge_set")


def small_trace(seed):
    return sliding_window_trace(6, edge_factor=6, batch_size=24, num_batches=6,
                                seed=seed, weighted=seed % 2 == 0)


def row_of(dynamic, vertex):
    """One current row as ``(destinations, weights or None)``."""
    cols, weights = dynamic._merged_row(vertex)
    return cols.tolist(), weights


def fresh_graph(dynamic):
    """A from-scratch CSR of the current edge set (its state is the oracle)."""
    edges, weights = dynamic.logical_edges()
    return from_edges(edges, num_vertices=dynamic.num_vertices, weights=weights,
                      name="fresh")


def member_arrays(name, member):
    """A member as the arrays its kernel reads."""
    if name == "edge_set":
        return [member.filter, member.table, member.overflow, member.stash]
    return [member]


@pytest.fixture
def scratch_builds(monkeypatch):
    """Member names in the order a read built them from scratch on a
    dynamic graph's own snapshots (the ``fresh`` oracle builds aside)."""
    builds = []
    read = SamplerState._read

    def counted_read(state, name, build):
        def counted(graph):
            if graph.name != "fresh":
                builds.append(name)
            return build(graph)
        return read(state, name, counted)

    monkeypatch.setattr(SamplerState, "_read", counted_read)
    return builds


def drop_a_row(rng, dynamic):
    """Take one vertex to degree 0; returns what puts its row back."""
    occupied = [v for v in range(dynamic.num_vertices) if row_of(dynamic, v)[0]]
    vertex = occupied[rng.integers(len(occupied))]
    cols, weights = row_of(dynamic, vertex)
    row = [(vertex, dst) for dst in cols]
    dynamic.remove_edges(row)
    assert row_of(dynamic, vertex)[0] == []
    return row, weights


def reweight_some(rng, dynamic):
    """Re-draw the weights of four present edges: a duplicate insert
    re-weights in place, so only weights move in the dirty rows."""
    edges, _ = dynamic.logical_edges()
    picked = edges[rng.choice(len(edges), size=4, replace=False)]
    assert dynamic.add_edges(picked, weights=rng.uniform(0.5, 2.0, size=4)) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_held_members_match_a_full_build_under_any_ask_schedule(seed, scratch_builds):
    rng = np.random.default_rng((seed, 24))
    trace = small_trace(seed)
    assert len(trace.batches) >= 3
    dynamic = trace.build_dynamic()
    # Each member is first asked at a random round — possibly one whose
    # snapshot is never taken, possibly never — and from then on only now
    # and again: holding must not depend on being read every epoch.
    first_ask = {name: int(rng.choice([*range(len(trace.batches) + 1), NEVER]))
                 for name in MEMBER_NAMES}
    asked, inherited = set(), dict.fromkeys(MEMBER_NAMES, 0)
    restore = None

    def publish(round_index):
        epoch = dynamic.epoch
        # Built before the snapshot adopts the new epoch as its base: a
        # full merge of the overlay, not the snapshot's own edges.
        fresh = fresh_graph(dynamic)  # held: a state does not keep its graph alive
        expected = SamplerState.of(fresh)
        snapshot = dynamic.snapshot()
        state = snapshot.sampler_state
        assert set(state.held) == asked, "held exactly what was asked, at every epoch"
        for name in asked if snapshot.epoch > epoch else ():
            inherited[name] += 1
        for name, at in first_ask.items():
            if at <= round_index and (name not in asked or rng.random() < 0.3):
                getattr(state, name)
                asked.add(name)
        for name, member in state.held.items():
            want = member_arrays(name, getattr(expected, name))
            for array, wanted in zip(member_arrays(name, member), want, strict=True):
                assert (array.dtype, array.shape) == (wanted.dtype, wanted.shape), name
                assert array.tobytes() == wanted.tobytes(), f"{name} at epoch {snapshot.epoch}"
                assert not array.flags.writeable
        return snapshot

    publish(0)
    for index, batch in enumerate(trace.batches, start=1):
        if restore is not None:
            dynamic.add_edges(restore[0], weights=restore[1])
            restore = None
        apply_batch(dynamic, batch)
        if trace.base_weights is not None and rng.random() < 0.5:
            reweight_some(rng, dynamic)
        if rng.random() < 0.25:
            continue                                   # this epoch is skipped
        publish(index)
        if rng.random() < 0.4:
            restore = drop_a_row(rng, dynamic)         # put back before the next batch
            publish(index)
    final = publish(len(trace.batches))

    assert sorted(scratch_builds) == sorted(asked), "one scratch build per asked member"
    assert set(final.sampler_state.held) == asked
    for name in MEMBER_NAMES:
        # From scratch on the epoch it was asked on, carried into every
        # epoch published after that.
        assert dynamic.state_builds[name, "scratch"] == (name in asked)
        assert dynamic.state_builds[name, "incremental"] == inherited[name]
    assert dynamic.epoch >= 2


def test_asking_a_superseded_epoch_is_a_late_ask_not_an_error(scratch_builds):
    trace = small_trace(4)
    dynamic = trace.build_dynamic()
    old = dynamic.snapshot()
    apply_batch(dynamic, trace.batches[0])
    new = dynamic.snapshot()
    old.sampler_state.alias_slots                      # epoch 1 exists already
    assert "alias_slots" not in new.sampler_state.held
    fresh = fresh_graph(dynamic)
    assert new.sampler_state.alias_slots.tobytes() == \
        SamplerState.of(fresh).alias_slots.tobytes()
    assert scratch_builds == ["alias_slots", "alias_slots"]
    assert dynamic.state_builds["alias_slots", "scratch"] == 2


def test_kernels_without_prepared_state_build_nothing(scratch_builds):
    trace = small_trace(2)
    dynamic = trace.build_dynamic()
    for batch in trace.batches[:3]:
        snapshot = dynamic.snapshot()
        UniformKernel().prepare(snapshot.graph)
        ReservoirKernel(ReservoirSampler()).prepare(snapshot.graph)
        assert not snapshot.sampler_state.held
        apply_batch(dynamic, batch)
    assert scratch_builds == [] and not dynamic.snapshot().sampler_state.held
    assert not dynamic.state_builds


def test_a_ppr_engine_never_builds_alias_slots(scratch_builds):
    """An engine swapped across epochs asks each snapshot only for what
    its kernel reads; PPR's uniform kernel reads no prepared state."""
    trace = small_trace(6)
    dynamic = trace.build_dynamic()
    snapshot = dynamic.snapshot()
    queries = make_queries(snapshot.graph, 16, seed=3)
    with prepare_engine("batch", snapshot, PPRSpec(max_length=12)) as engine:
        for batch in trace.batches[:3]:
            assert engine.run(queries, seed=3).paths
            apply_batch(dynamic, batch)
            engine.swap_snapshot(dynamic.snapshot())
        assert engine.run(queries, seed=3).paths
    assert scratch_builds == []
    assert not dynamic.snapshot().sampler_state.held and not dynamic.state_builds


# --- visible without a profiler ---------------------------------------------------


def test_a_traced_snapshot_names_what_it_maintained_and_the_ledger_is_exported():
    trace = small_trace(2)
    dynamic = trace.build_dynamic()
    dynamic.snapshot().sampler_state.alias_slots
    apply_batch(dynamic, trace.batches[0])
    with tracing() as tracer:
        tracer.clear()
        dynamic.snapshot()
        dynamic.snapshot().sampler_state.edge_set      # a late ask
        events = tracer.events()
    assert [event.name for event in events] == [
        "dynamic.merge", "dynamic.assemble", "dynamic.rebuild_member",
        "dynamic.rebuild_rows", "dynamic.snapshot", "sampling.build_member"]
    child, rebuilt, snapshot_span, late = events[2:]
    assert snapshot_span.args["members"] == ["alias_slots"]
    assert child.args == {"member": "alias_slots"}
    assert rebuilt.ts <= child.ts and child.ts + child.dur <= rebuilt.ts + rebuilt.dur
    assert late.args == {"member": "edge_set"}

    registry = MetricsRegistry()
    dynamic_graph_into(registry, dynamic)
    builds = registry.get("repro_dynamic_state_builds_total")
    assert builds.value(member="alias_slots", kind="scratch") == 1
    assert builds.value(member="alias_slots", kind="incremental") == 1
    assert builds.value(member="edge_set", kind="scratch") == 1
    assert builds.value(member="edge_set", kind="incremental") == 0


# --- a snapshot or its graph: one hand-off -------------------------------------

@pytest.mark.parametrize("engine", ["batch", "reference"])
def test_an_engine_built_from_a_snapshot_or_its_graph_leaves_its_state_to_later_epochs(
    engine, scratch_builds
):
    spec = DeepWalkSpec(max_length=8)

    def drive(hand_over):
        """Paths on epochs 0 to 4, and the build ledger."""
        trace = small_trace(8)
        dynamic = trace.build_dynamic()
        snapshot = dynamic.snapshot()
        queries = make_queries(snapshot.graph, 16, seed=5)
        paths = []
        with prepare_engine(engine, hand_over(snapshot), spec) as built:
            paths += built.run(queries, seed=9).paths
            for batch in trace.batches[:4]:
                apply_batch(dynamic, batch)
                built.swap_snapshot(dynamic.snapshot())
                paths += built.run(queries, seed=9).paths
        assert dynamic.epoch == 4
        return paths, dict(dynamic.state_builds)

    from_snapshot, ledger = drive(lambda snapshot: snapshot)
    from_graph, ledger_from_graph = drive(lambda snapshot: snapshot.graph)
    assert all(map(np.array_equal, from_snapshot, from_graph))
    assert ledger == ledger_from_graph
    if engine == "reference":
        # The scalar reference engine prepares per run and reads no sampler state.
        assert ledger == {} and scratch_builds == []
    else:
        # One read at epoch 0; every later epoch carried the slots incrementally.
        assert ledger == {("alias_slots", "scratch"): 1, ("alias_slots", "incremental"): 4}
        assert scratch_builds == ["alias_slots", "alias_slots"]


@pytest.mark.parametrize("algorithm", ["rejection", "reservoir"])
def test_a_second_order_swap_builds_nothing(algorithm, scratch_builds):
    """An engine handed a Node2Vec snapshot's graph reads its edge set
    once; every later epoch's snapshot carries one, so no swap builds."""
    trace = small_trace(10)
    dynamic = trace.build_dynamic()
    snapshot = dynamic.snapshot()
    spec = Node2VecSpec(p=2.0, q=0.5, strategy=algorithm, max_length=8)
    with prepare_engine("batch", snapshot.graph, spec) as engine:
        for batch in trace.batches[:3]:
            apply_batch(dynamic, batch)
            snapshot = dynamic.snapshot()
            assert "edge_set" in snapshot.sampler_state.held
            engine.swap_snapshot(snapshot)
            assert engine._kernel._edge_set is snapshot.sampler_state.edge_set
    assert scratch_builds == ["edge_set"]
    assert dict(dynamic.state_builds) == {("edge_set", "scratch"): 1,
                                          ("edge_set", "incremental"): 3}


# --- the apply path: base membership for a whole call at once ----------------


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_vectorised_base_membership_is_has_edge(seed):
    trace = small_trace(seed)
    dynamic = trace.build_dynamic()
    rng = np.random.default_rng((seed, 7))
    for batch in trace.batches:
        probes = np.concatenate((batch.add, batch.remove,
                                 rng.integers(0, dynamic.num_vertices, size=(16, 2))))
        src, dst = probes[:, 0].astype(np.int64), probes[:, 1].astype(np.int64)
        base = dynamic._base
        *_, in_base = dynamic._ops(src, dst, None)
        assert in_base == [base.has_edge(s, d) for s, d in zip(src.tolist(), dst.tolist())]
        apply_batch(dynamic, batch)
        dynamic.snapshot()                             # the base moves on


def test_membership_search_on_an_edgeless_base():
    dynamic = DynamicGraph(from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=4))
    assert dynamic.add_edges([(0, 1), (3, 2), (0, 1)]) == 2
    assert dynamic.num_edges == 2 and row_of(dynamic, 3)[0] == [2]


def test_duplicates_inside_one_call_apply_in_order():
    base = from_edges([(0, 1), (0, 2), (1, 0)], num_vertices=3, weights=[1.0, 2.0, 3.0])
    dynamic = DynamicGraph(base)
    # New edge twice (second is a re-weight), base edge re-inserted.
    assert dynamic.add_edges([(2, 0), (2, 0), (0, 1)], weights=[5.0, 6.0, 7.0]) == 1
    assert row_of(dynamic, 2)[1].tolist() == [6.0]
    assert row_of(dynamic, 0)[1].tolist() == [7.0, 2.0]
    # Remove, re-add and remove again in single calls: order is honoured.
    dynamic.remove_edges([(0, 2)])
    dynamic.add_edges([(0, 2)], weights=[4.0])
    dynamic.remove_edges([(0, 2), (2, 0)])
    with pytest.raises(DynamicGraphError, match=r"cannot remove edge 0 -> 2: it does not exist"):
        dynamic.remove_edges([(0, 1), (0, 2)])
    assert dynamic.num_edges == 1 and dynamic.delta_edges == 2


def test_a_failing_remove_mid_call_keeps_the_earlier_ops():
    base = from_edges([(0, 1), (0, 2), (1, 2)], num_vertices=3)
    dynamic = DynamicGraph(base)
    with pytest.raises(DynamicGraphError, match=r"cannot remove edge 2 -> 0: it does not exist"):
        dynamic.remove_edges([(0, 1), (2, 0), (1, 2)])
    assert row_of(dynamic, 0)[0] == [2] and row_of(dynamic, 1)[0] == [2]
    assert dynamic.num_edges == 2 and dynamic.updates_applied == 0
    # The same edge removed twice in one call fails at its second mention.
    with pytest.raises(DynamicGraphError, match=r"cannot remove edge 1 -> 2"):
        dynamic.remove_edges([(1, 2), (1, 2)])
    snapshot = dynamic.snapshot()
    assert snapshot.graph.num_edges == 1 and snapshot.graph.has_edge(0, 2)


# --- structure: one mechanism, nothing eager -----------------------------------


def test_a_state_is_only_reached_through_its_graph():
    """One owner per graph: nothing in the package calls the
    ``SamplerState`` constructor (``SamplerState.of`` makes the one state
    of a graph), and no kernel takes arrays any way but ``prepare(graph)``."""
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "SamplerState"], path.name
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
        assert not names & {"load_state", "state_arrays", "kernel_arrays", "full_build"}, \
            path.name
