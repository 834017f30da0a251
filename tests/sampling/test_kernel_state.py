"""Prepared kernel state as named arrays, for every kernel kind.

``VectorizedKernel.state_arrays`` exports what ``prepare`` built, and
``load_state`` adopts it in a fresh kernel of the same kind, which then
samples without a ``prepare`` call.  A dynamic snapshot keeps its sampler
state in this shape and shares it, read-only, with every engine swapped
onto it (:func:`repro.walks.engine.prepared_kernel`).  So for each kernel:
it exports exactly its named arrays (and refuses before ``prepare``), a
loaded kernel walks bit for bit like the prepared one, adopts the arrays
without copying them, and never writes to them.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.graph import rmat
from repro.graph.datasets import assign_metapath_schema, thunderrw_weights
from repro.sampling.vectorized import make_kernel
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
EDGE_SET = ("edge_filter", "edge_table", "edge_overflow", "edge_stash", "edge_stride")


#: Spec -> the state names its kernel exports (empty: nothing prepared).
SPECS = {
    "uniform": (lambda: URWSpec(max_length=LENGTH), ()),
    "alias": (lambda: DeepWalkSpec(max_length=LENGTH), ("alias_slots",)),
    "rejection": (lambda: Node2VecSpec(p=2.0, q=0.5, max_length=LENGTH), EDGE_SET),
    "reservoir-second-order": (
        lambda: Node2VecSpec(p=2.0, q=0.5, strategy="reservoir", max_length=LENGTH),
        EDGE_SET,
    ),
    "reservoir-typed": (lambda: MetaPathSpec(pattern=[0, 1, 2], max_length=LENGTH), ()),
}


def weighted_typed(graph, seed):
    graph = graph.with_weights(thunderrw_weights(graph, seed))
    return assign_metapath_schema(graph, num_types=3, seed=seed)


@pytest.fixture(scope="module")
def graph():
    """Weighted, typed RMAT-9; directed, so it has dangling vertices."""
    return weighted_typed(rmat(9, edge_factor=8, seed=4), 4)


@pytest.fixture(scope="module")
def queries(graph):
    return make_queries(graph, 300, seed=6, require_outgoing=False)


def prepared(spec, graph):
    kernel = make_kernel(spec.make_sampler())
    kernel.prepare(graph)
    return kernel


def loaded(spec, arrays):
    kernel = make_kernel(spec.make_sampler())
    kernel.load_state(arrays)
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


@pytest.mark.parametrize("kind", SPECS)
def test_a_kernel_exports_exactly_its_state_and_only_once_prepared(graph, kind):
    make_spec, names = SPECS[kind]
    spec = make_spec()
    assert tuple(prepared(spec, graph).state_arrays()) == names
    fresh = make_kernel(spec.make_sampler())
    if names:
        with pytest.raises(SamplingError, match="prepare"):
            fresh.state_arrays()
    else:
        assert fresh.state_arrays() == {}


@pytest.mark.parametrize("kind", SPECS)
def test_a_loaded_kernel_walks_like_the_prepared_one(graph, queries, kind):
    spec = SPECS[kind][0]()
    kernel = prepared(spec, graph)
    assert_same_walks(walk(graph, spec, kernel, queries),
                      walk(graph, spec, loaded(spec, kernel.state_arrays()), queries))


@pytest.mark.parametrize("kind", SPECS)
@pytest.mark.parametrize("stash", ["overflowed", "empty"])
def test_a_loaded_kernel_adopts_the_arrays_without_copying(graph, kind, stash):
    # RMAT-9 overflows some table lines into the stash; RMAT-6 (seed 1)
    # overflows none, so its stash is an empty array, which shares
    # memory with nothing: only identity tells adoption from a copy.
    if stash == "empty":
        graph = weighted_typed(rmat(6, edge_factor=3, seed=1), 1)
    spec = SPECS[kind][0]()
    exported = prepared(spec, graph).state_arrays()
    if "edge_stash" in exported:
        assert (exported["edge_stash"].size == 0) == (stash == "empty")
    adopted = loaded(spec, exported).state_arrays()
    assert adopted.keys() == exported.keys()
    for name, array in exported.items():
        if name == "edge_stride":
            # Adopted as the scalar it holds, and exported again as one.
            assert np.array_equal(adopted[name], array)
        else:
            assert adopted[name] is array, name


@pytest.mark.parametrize("kind", SPECS)
def test_read_only_state_is_enough_to_walk(graph, queries, kind):
    """The state a snapshot shares is read-only: a kernel that wrote to
    it would raise here instead of corrupting every engine beside it."""
    spec = SPECS[kind][0]()
    kernel = prepared(spec, graph)
    frozen = {}
    for name, array in kernel.state_arrays().items():
        frozen[name] = array.copy()
        frozen[name].setflags(write=False)
    actual = walk(graph, spec, loaded(spec, frozen), queries)
    assert_same_walks(walk(graph, spec, kernel, queries), actual)
    for name, array in kernel.state_arrays().items():
        assert np.array_equal(frozen[name], array), f"{name} was written to"
