"""Prepared kernel state: one per graph, for every kernel kind.

``VectorizedKernel.prepare(graph)`` is the one way a kernel gets its
prepared arrays: it reads them from ``SamplerState.of(graph)``, which
builds each member on its first read and hands the same read-only object
to every later reader — another engine, a traced proxy, a dynamic
snapshot's swap.  So for each kernel: preparing reads exactly its
members and builds each once per graph, kernels of one graph share them
by identity and walk alike, a graph object of its own builds its own,
and no kernel writes to what it shares.
"""

import dataclasses

import numpy as np
import pytest

from repro.graph import CSRGraph, rmat
from repro.graph.datasets import assign_metapath_schema, thunderrw_weights
from repro.sampling import SamplerState
from repro.sampling.vectorized import EdgeSet, make_kernel
from repro.walks import (
    DeepWalkSpec,
    EngineStats,
    MetaPathSpec,
    Node2VecSpec,
    URWSpec,
    make_queries,
)
from repro.walks.batch import BatchEngine

LENGTH = 12
EDGE_SET_FIELDS = ("filter", "table", "overflow", "stash")


#: Spec -> the sampler-state members its kernel reads (empty: none).
SPECS = {
    "uniform": (lambda: URWSpec(max_length=LENGTH), ()),
    "alias": (lambda: DeepWalkSpec(max_length=LENGTH), ("alias_slots",)),
    "rejection": (lambda: Node2VecSpec(p=2.0, q=0.5, max_length=LENGTH), ("edge_set",)),
    "reservoir-second-order": (
        lambda: Node2VecSpec(p=2.0, q=0.5, strategy="reservoir", max_length=LENGTH),
        ("edge_set",),
    ),
    "reservoir-typed": (lambda: MetaPathSpec(pattern=[0, 1, 2], max_length=LENGTH), ()),
}


def weighted_typed(graph, seed):
    graph = graph.with_weights(thunderrw_weights(graph, seed))
    return assign_metapath_schema(graph, num_types=3, seed=seed)


def new_graph(stash="overflowed"):
    """Weighted, typed RMAT-9, a new object (with an empty sampler state)
    on every call; directed, so it has dangling vertices.  RMAT-9
    overflows some edge-table lines into the stash; RMAT-6 (seed 1)
    overflows none, so its stash is an empty array, which shares memory
    with nothing: only identity tells sharing from a copy."""
    if stash == "empty":
        return weighted_typed(rmat(6, edge_factor=3, seed=1), 1)
    return weighted_typed(rmat(9, edge_factor=8, seed=4), 4)


def same_edges(graph):
    """Another ``CSRGraph`` object over the very same arrays."""
    return CSRGraph(row_ptr=graph.row_ptr, col=graph.col, weights=graph.weights,
                    edge_types=graph.edge_types, vertex_types=graph.vertex_types,
                    name=graph.name)


@pytest.fixture(scope="module")
def queries():
    return make_queries(new_graph(), 300, seed=6, require_outgoing=False)


def prepared(spec, graph):
    kernel = make_kernel(spec.make_sampler())
    kernel.prepare(graph)
    return kernel


def walk(graph, spec, kernel, queries) -> tuple:
    stats = EngineStats()
    flat, offsets = BatchEngine(graph, spec, kernel=kernel).run(
        queries, seed=8, stats=stats)._buffer()
    return flat, offsets, dataclasses.asdict(stats)


def assert_same_walks(expected: tuple, actual: tuple) -> None:
    assert np.array_equal(expected[0], actual[0])
    assert np.array_equal(expected[1], actual[1])
    assert expected[2] == actual[2]


def member_arrays(member) -> list:
    if isinstance(member, EdgeSet):
        return [getattr(member, name) for name in EDGE_SET_FIELDS]
    return [member]


@pytest.mark.parametrize("kind", SPECS)
@pytest.mark.parametrize("stash", ["overflowed", "empty"])
def test_prepare_reads_exactly_its_members_once_per_graph(kind, stash):
    make_spec, names = SPECS[kind]
    spec = make_spec()
    graph = new_graph(stash)
    state = SamplerState.of(graph)
    first, second = prepared(spec, graph), prepared(spec, graph)
    assert tuple(state.held) == names
    assert dict(state.builds) == {(name, "scratch"): 1 for name in names}
    for name, member in state.held.items():
        if name == "edge_set":
            assert (member.stash.size == 0) == (stash == "empty")
        # Shared by identity: the kernels hold the graph's member itself.
        for kernel in (first, second):
            assert any(value is member for value in vars(kernel).values()), name
    assert SamplerState.of(graph) is state


@pytest.mark.parametrize("kind", SPECS)
def test_kernels_of_one_graph_and_of_an_equal_one_walk_alike(queries, kind):
    spec = SPECS[kind][0]()
    graph = new_graph()
    twin = same_edges(graph)
    expected = walk(graph, spec, prepared(spec, graph), queries)
    assert_same_walks(expected, walk(graph, spec, prepared(spec, graph), queries))
    assert_same_walks(expected, walk(twin, spec, prepared(spec, twin), queries))
    assert SamplerState.of(twin) is not SamplerState.of(graph)


@pytest.mark.parametrize("kind", SPECS)
def test_read_only_state_is_enough_to_walk(queries, kind):
    """The state a graph shares is read-only: a kernel that wrote to it
    would raise here instead of corrupting every engine beside it."""
    make_spec, names = SPECS[kind]
    spec = make_spec()
    graph = new_graph()
    expected = walk(graph, spec, prepared(spec, graph), queries)
    frozen_graph = same_edges(graph)
    frozen_state = SamplerState.of(frozen_graph)
    for name, member in SamplerState.of(graph).held.items():
        arrays = [array.copy() for array in member_arrays(member)]
        for array in arrays:
            array.setflags(write=False)
        frozen_state.held[name] = (
            EdgeSet(*arrays, graph.num_vertices) if name == "edge_set" else arrays[0]
        )
    assert tuple(frozen_state.held) == names
    actual = walk(frozen_graph, spec, prepared(spec, frozen_graph), queries)
    assert_same_walks(expected, actual)
    assert not frozen_state.builds, "the frozen members were read, not rebuilt"
    for name, member in SamplerState.of(graph).held.items():
        for ours, theirs in zip(member_arrays(member),
                                member_arrays(frozen_state.held[name]), strict=True):
            assert np.array_equal(ours, theirs), f"{name} was written to"
