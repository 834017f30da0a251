"""A snapshot maintains what its readers read — and nothing else.

``SamplerState`` builds a member on its first read and every later epoch
then maintains it incrementally.  Over seeded update traces and random
ask schedules this pins the whole contract: a held member equals a
from-scratch build byte for byte at every epoch, a member is built from
scratch at most once per dynamic graph and never unasked, held stays
held, and kernels that read nothing cost nothing.  The apply path's
one-pass base-membership search is held to the scalar ``has_edge``.
"""

import asyncio

import numpy as np
import pytest

import repro.dynamic.state as state_module
from repro.dynamic import DynamicGraph, SamplerState, make_trace
from repro.dynamic.state import MEMBERS
from repro.dynamic.workload import apply_batch
from repro.engines import prepare_engine
from repro.errors import DynamicGraphError
from repro.graph import from_edges
from repro.obs import MetricsRegistry, dynamic_graph_into
from repro.obs.trace import tracing
from repro.sampling.vectorized import ReservoirKernel, UniformKernel
from repro.serve import ServeConfig, WalkService
from repro.walks import DeepWalkSpec, PPRSpec, make_queries

KINDS = ("grow", "window", "churn")
#: ``(kind, seed)``: 27 traces, weighted on even seeds (churn always is).
TRACES = [(kind, seed) for kind in KINDS for seed in range(9)]
NEVER = 99


def small_trace(kind, seed):
    return make_trace(kind, 6, edge_factor=6, batch_size=24, num_batches=6,
                      seed=seed, weighted=seed % 2 == 0)


def fresh_state(dynamic):
    edges, weights = dynamic.logical_edges()
    fresh = from_edges(edges, num_vertices=dynamic.num_vertices, weights=weights,
                       name="fresh")
    return SamplerState.full_build(fresh)


@pytest.fixture
def scratch_builds(monkeypatch):
    """Member names in the order their from-scratch builders ran on a
    dynamic graph's own snapshots (the ``fresh`` oracle builds aside)."""
    builds = []

    def spy(name, build):
        def counted(graph):
            if graph.name != "fresh":
                builds.append(name)
            return build(graph)
        return counted

    for name, member in MEMBERS.items():
        monkeypatch.setitem(state_module.MEMBERS, name,
                            member._replace(build=spy(name, member.build)))
    return builds


def drop_a_row(rng, dynamic):
    """Take one vertex to degree 0; returns what puts its row back."""
    occupied = [v for v in range(dynamic.num_vertices) if dynamic.degree(v)]
    vertex = occupied[rng.integers(len(occupied))]
    row = [(vertex, int(dst)) for dst in dynamic.neighbors(vertex)]
    weights = dynamic.neighbor_weights(vertex) if dynamic.is_weighted else None
    dynamic.remove_edges(row)
    assert dynamic.degree(vertex) == 0
    return row, weights


@pytest.mark.parametrize("kind,seed", TRACES)
def test_held_members_match_a_full_build_under_any_ask_schedule(kind, seed, scratch_builds):
    rng = np.random.default_rng((seed, KINDS.index(kind), 24))
    trace = small_trace(kind, seed)
    assert len(trace.batches) >= 3
    dynamic = trace.build_dynamic(
        **({"compaction_threshold": 0.05, "min_compaction_edges": 0} if seed % 3 == 0 else {}))
    # Each member is first asked at a random round — possibly one whose
    # snapshot is never taken, possibly never — and from then on only now
    # and again: holding must not depend on being read every epoch.
    first_ask = {name: int(rng.choice([*range(len(trace.batches) + 1), NEVER]))
                 for name in MEMBERS}
    asked, inherited = set(), dict.fromkeys(MEMBERS, 0)
    restore = None

    def publish(round_index):
        epoch = dynamic.epoch
        # Built before the snapshot adopts the new epoch as its base: a
        # full merge of the overlay, not the snapshot's own edges.
        expected = fresh_state(dynamic)
        snapshot = dynamic.snapshot()
        state = snapshot.sampler_state
        assert set(state.held) == asked, "held exactly what was asked, at every epoch"
        for name in asked if snapshot.epoch > epoch else ():
            inherited[name] += 1
        for name, at in first_ask.items():
            if at <= round_index and (name not in asked or rng.random() < 0.3):
                getattr(state, name)
                asked.add(name)
        for name, array in state.held.items():
            want = getattr(expected, name)
            assert (array.dtype, array.shape) == (want.dtype, want.shape), name
            assert array.tobytes() == want.tobytes(), f"{name} at epoch {snapshot.epoch}"
            assert not array.flags.writeable
        return snapshot

    publish(0)
    for index, batch in enumerate(trace.batches, start=1):
        if restore is not None:
            dynamic.add_edges(restore[0], weights=restore[1])
            restore = None
        apply_batch(dynamic, batch)
        if rng.random() < 0.25:
            dynamic.compact()
        if rng.random() < 0.25:
            continue                                   # this epoch is skipped
        publish(index)
        if rng.random() < 0.4:
            restore = drop_a_row(rng, dynamic)         # put back before the next batch
            publish(index)
    final = publish(len(trace.batches))

    assert sorted(scratch_builds) == sorted(asked), "one scratch build per asked member"
    assert set(final.sampler_state.held) == asked
    for name in MEMBERS:
        # From scratch on the epoch it was asked on, incrementally on
        # every epoch published after that.
        assert dynamic.state_builds[name, "scratch"] == (name in asked)
        assert dynamic.state_builds[name, "incremental"] == inherited[name]
    assert dynamic.epoch >= 2
    if seed % 3 == 0:
        assert dynamic.compactions >= 1


def test_asking_a_superseded_epoch_is_a_late_ask_not_an_error(scratch_builds):
    trace = small_trace("window", 4)
    dynamic = trace.build_dynamic()
    old = dynamic.snapshot()
    apply_batch(dynamic, trace.batches[0])
    new = dynamic.snapshot()
    old.sampler_state.alias_slots                      # epoch 1 exists already
    assert "alias_slots" not in new.sampler_state.held
    assert new.sampler_state.alias_slots.tobytes() == fresh_state(dynamic).alias_slots.tobytes()
    assert scratch_builds == ["alias_slots", "alias_slots"]
    assert dynamic.state_builds["alias_slots", "scratch"] == 2


def test_kernels_without_prepared_state_build_nothing(scratch_builds):
    trace = small_trace("window", 2)
    dynamic = trace.build_dynamic()
    for batch in trace.batches[:3]:
        snapshot = dynamic.snapshot()
        assert snapshot.kernel_arrays(UniformKernel()) == {}
        assert snapshot.kernel_arrays(ReservoirKernel()) == {}
        apply_batch(dynamic, batch)
    assert scratch_builds == [] and not dynamic.snapshot().sampler_state.held
    assert not dynamic.state_builds


def test_a_ppr_service_never_builds_alias_slots(scratch_builds):
    trace = small_trace("window", 6)
    dynamic = trace.build_dynamic()
    spec = PPRSpec(max_length=12)

    async def scenario():
        async with WalkService(dynamic.snapshot(), spec, engine="batch", seed=3,
                               config=ServeConfig(max_batch=16)) as service:
            for batch in trace.batches[:3]:
                await service.submit(0)
                apply_batch(dynamic, batch)
                await service.update_graph(dynamic.snapshot())
            await service.submit(1)
            return service.epoch

    assert asyncio.run(scenario()) == 3
    # PPR's uniform kernel reads no prepared state, so no epoch builds any.
    assert scratch_builds == []
    assert not dynamic.snapshot().sampler_state.held and not dynamic.state_builds


# --- visible without a profiler ---------------------------------------------------


def test_a_traced_snapshot_names_what_it_maintained_and_the_ledger_is_exported():
    trace = small_trace("window", 2)
    dynamic = trace.build_dynamic()
    dynamic.snapshot().sampler_state.alias_slots
    apply_batch(dynamic, trace.batches[0])
    with tracing() as tracer:
        tracer.clear()
        dynamic.snapshot()
        dynamic.snapshot().sampler_state.edge_keys     # a late ask
        events = tracer.events()
    assert [event.name for event in events] == [
        "dynamic.merge", "dynamic.assemble", "dynamic.rebuild_member",
        "dynamic.rebuild_rows", "dynamic.snapshot", "dynamic.build_member"]
    child, rebuilt, snapshot_span, late = events[2:]
    assert snapshot_span.args["members"] == ["alias_slots"]
    assert child.args == {"member": "alias_slots"}
    assert rebuilt.ts <= child.ts and child.ts + child.dur <= rebuilt.ts + rebuilt.dur
    assert late.args == {"member": "edge_keys"}

    registry = MetricsRegistry()
    dynamic_graph_into(registry, dynamic)
    builds = registry.get("repro_dynamic_state_builds_total")
    assert builds.value(member="alias_slots", kind="scratch") == 1
    assert builds.value(member="alias_slots", kind="incremental") == 1
    assert builds.value(member="edge_keys", kind="scratch") == 1
    assert builds.value(member="edge_keys", kind="incremental") == 0


# --- hand engines the snapshot, not its graph ----------------------------------

@pytest.mark.parametrize("engine", ["batch", "reference"])
def test_an_engine_built_from_a_snapshot_leaves_its_state_to_later_epochs(
    engine, scratch_builds
):
    spec = DeepWalkSpec(max_length=8)

    def drive(hand_over):
        """Paths on epoch 0 and 1, and the scratch builds the swap cost."""
        trace = small_trace("window", 8)
        dynamic = trace.build_dynamic()
        snapshot = dynamic.snapshot()
        queries = make_queries(snapshot.graph, 16, seed=5)
        with prepare_engine(engine, hand_over(snapshot), spec) as built:
            before = built.run(queries, seed=9)
            apply_batch(dynamic, trace.batches[0])
            snapshot = dynamic.snapshot()
            del scratch_builds[:]
            built.swap_snapshot(snapshot)
            return before.paths + built.run(queries, seed=9).paths, list(scratch_builds)

    from_snapshot, swap_built = drive(lambda snapshot: snapshot)
    from_graph, swap_built_late = drive(lambda snapshot: snapshot.graph)
    assert all(map(np.array_equal, from_snapshot, from_graph))
    # The scalar reference engine prepares per run and reads no snapshot state.
    assert swap_built == []
    assert swap_built_late == ([] if engine == "reference" else ["alias_slots"])


# --- the apply path: base membership for a whole call at once ----------------


@pytest.mark.parametrize("kind,seed", TRACES[::3])
def test_vectorised_base_membership_is_has_edge(kind, seed):
    trace = small_trace(kind, seed)
    dynamic = trace.build_dynamic(compaction_threshold=0.05, min_compaction_edges=0)
    rng = np.random.default_rng((seed, 7))
    for batch in trace.batches:
        probes = np.concatenate((batch.add, batch.remove, batch.reweight,
                                 rng.integers(0, dynamic.num_vertices, size=(16, 2))))
        src, dst = probes[:, 0].astype(np.int64), probes[:, 1].astype(np.int64)
        base = dynamic._base
        *_, in_base = dynamic._ops(src, dst, None)
        assert in_base == [base.has_edge(s, d) for s, d in zip(src.tolist(), dst.tolist())]
        apply_batch(dynamic, batch)                    # compacts: the base moves on


def test_membership_search_on_an_edgeless_base():
    dynamic = DynamicGraph(from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=4))
    assert dynamic.add_edges([(0, 1), (3, 2), (0, 1)]) == 2
    assert dynamic.num_edges == 2 and dynamic.has_edge(3, 2)


def test_duplicates_inside_one_call_apply_in_order():
    base = from_edges([(0, 1), (0, 2), (1, 0)], num_vertices=3, weights=[1.0, 2.0, 3.0])
    dynamic = DynamicGraph(base)
    # New edge twice (second is a re-weight), base edge re-inserted.
    assert dynamic.add_edges([(2, 0), (2, 0), (0, 1)], weights=[5.0, 6.0, 7.0]) == 1
    assert dynamic.neighbor_weights(2).tolist() == [6.0]
    assert dynamic.neighbor_weights(0).tolist() == [7.0, 2.0]
    # Remove, re-add and remove again in single calls: order is honoured.
    dynamic.remove_edges([(0, 2)])
    dynamic.add_edges([(0, 2)], weights=[4.0])
    dynamic.remove_edges([(0, 2), (2, 0)])
    with pytest.raises(DynamicGraphError, match=r"cannot remove edge 0 -> 2: it does not exist"):
        dynamic.remove_edges([(0, 1), (0, 2)])
    assert dynamic.num_edges == 1 and dynamic.delta_edges == 2
    with pytest.raises(DynamicGraphError, match=r"cannot re-weight edge 0 -> 2: it does not exist"):
        dynamic.update_weights([(1, 0), (0, 2)], [8.0, 9.0])
    assert dynamic.neighbor_weights(1).tolist() == [8.0]


def test_a_failing_remove_mid_call_keeps_the_earlier_ops():
    base = from_edges([(0, 1), (0, 2), (1, 2)], num_vertices=3)
    dynamic = DynamicGraph(base)
    with pytest.raises(DynamicGraphError, match=r"cannot remove edge 2 -> 0: it does not exist"):
        dynamic.remove_edges([(0, 1), (2, 0), (1, 2)])
    assert not dynamic.has_edge(0, 1) and dynamic.has_edge(1, 2)
    assert dynamic.num_edges == 2 and dynamic.updates_applied == 0
    # The same edge removed twice in one call fails at its second mention.
    with pytest.raises(DynamicGraphError, match=r"cannot remove edge 1 -> 2"):
        dynamic.remove_edges([(1, 2), (1, 2)])
    snapshot = dynamic.snapshot()
    assert snapshot.graph.num_edges == 1 and snapshot.graph.has_edge(0, 2)


# --- structure: one mechanism, nothing eager -----------------------------------


def test_only_the_bench_asks_for_everything_and_nothing_is_a_cached_property():
    import ast
    from pathlib import Path

    package = Path(state_module.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
        if path.name not in ("bench.py", "state.py"):      # state.py defines it
            assert "full_build" not in names, f"{path.name} builds a whole SamplerState"
        if path.name == "state.py":
            assert "cached_property" not in names
            calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and getattr(node.func, "attr", None) == "full_build"]
            assert not calls, "state.py calls full_build"
