"""Shared-memory graph store: round trips, read-only views, cleanup."""

import os

import numpy as np
import pytest

from repro.engines import prepare_engine, run_software_walks
from repro.errors import GraphError
from repro.graph import cycle_graph, from_edges, load_dataset
from repro.graph.datasets import assign_metapath_schema
from repro.parallel.shared_graph import (
    KERNEL_PREFIX,
    SharedArrayStore,
    graph_arrays,
    graph_from_store,
    kernel_from_store,
    kernel_state_from_store,
)
from repro.parallel.runtime import worker_context
from repro.sampling.vectorized import make_kernel
from repro.walks import DeepWalkSpec, Node2VecSpec, make_queries


class TestSharedArrayStore:
    def test_round_trip(self):
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 7),
            "c": np.array([[1, 2], [3, 4]], dtype=np.int16),
        }
        with SharedArrayStore.create(arrays) as store:
            out = store.arrays()
            for name, array in arrays.items():
                assert np.array_equal(out[name], array)
                assert out[name].dtype == array.dtype

    def test_attach_sees_same_data_zero_copy(self):
        arrays = {"x": np.arange(64, dtype=np.int64)}
        with SharedArrayStore.create(arrays) as store:
            attached = SharedArrayStore.attach(store.handle)
            view = attached.arrays()["x"]
            assert np.array_equal(view, arrays["x"])
            # a view of the segment, not a pickled copy
            assert view.base is not None
            del view
            attached.close()

    def test_views_are_read_only(self):
        with SharedArrayStore.create({"x": np.arange(4)}) as store:
            view = store.arrays()["x"]
            with pytest.raises(ValueError):
                view[0] = 99

    def test_closed_store_refuses_access(self):
        store = SharedArrayStore.create({"x": np.arange(4)})
        store.close()
        with pytest.raises(GraphError, match="closed"):
            store.arrays()

    def test_owner_unlinks_segment(self):
        store = SharedArrayStore.create({"x": np.arange(4)})
        handle = store.handle
        store.close()
        with pytest.raises(FileNotFoundError):
            SharedArrayStore.attach(handle)


class TestSharedGraph:
    def test_plain_graph_round_trip(self):
        graph = cycle_graph(12)
        with SharedArrayStore.create(graph_arrays(graph), graph_name=graph.name) as store:
            rebuilt = graph_from_store(store)
            assert rebuilt.name == graph.name
            assert np.array_equal(rebuilt.row_ptr, graph.row_ptr)
            assert np.array_equal(rebuilt.col, graph.col)
            assert rebuilt.weights is None and rebuilt.edge_types is None

    def test_weighted_typed_graph_round_trip(self):
        graph = load_dataset("WG", scale=0.1, seed=1, weighted=True)
        graph = assign_metapath_schema(graph, num_types=3, seed=2)
        with SharedArrayStore.create(graph_arrays(graph), graph_name=graph.name) as store:
            rebuilt = graph_from_store(store)
            assert np.array_equal(rebuilt.weights, graph.weights)
            assert np.array_equal(rebuilt.edge_types, graph.edge_types)
            assert np.array_equal(rebuilt.vertex_types, graph.vertex_types)

    def test_rebuilt_graph_shares_segment_memory(self):
        graph = cycle_graph(50)
        with SharedArrayStore.create(graph_arrays(graph)) as store:
            rebuilt = graph_from_store(store)
            # CSRGraph must keep the zero-copy views, not copy them.
            assert rebuilt.col.base is not None


class TestKernelStateBroadcast:
    def test_alias_state_round_trip(self):
        graph = cycle_graph(8).with_weights(np.arange(1.0, 9.0))
        kernel = make_kernel(DeepWalkSpec(max_length=4).make_sampler())
        kernel.prepare(graph)
        arrays = {KERNEL_PREFIX + k: v for k, v in kernel.state_arrays().items()}
        with SharedArrayStore.create(arrays) as store:
            state = kernel_state_from_store(store)
            fresh = make_kernel(DeepWalkSpec(max_length=4).make_sampler())
            fresh.load_state(state)
            held, shared = kernel.state_arrays()["alias_slots"], state["alias_slots"]
            assert shared.dtype == held.dtype and shared.tobytes() == held.tobytes()

    def test_rejection_state_round_trip(self):
        graph = from_edges([(0, 1), (1, 2), (2, 0), (1, 0)], num_vertices=3)
        kernel = make_kernel(Node2VecSpec(max_length=4).make_sampler())
        kernel.prepare(graph)
        arrays = {KERNEL_PREFIX + k: v for k, v in kernel.state_arrays().items()}
        with SharedArrayStore.create(arrays) as store:
            state = kernel_state_from_store(store)
            assert np.array_equal(state["edge_keys"], kernel.state_arrays()["edge_keys"])
            assert np.array_equal(state["edge_filter"], kernel.state_arrays()["edge_filter"])

    @pytest.mark.skipif(worker_context().get_start_method() != "fork",
                        reason="the worker-side patches are inherited by fork")
    @pytest.mark.parametrize("engine,options", [("parallel", {"workers": 2}),
                                                ("dist", {"shards": 2})])
    @pytest.mark.parametrize("sampler", ["default", "auto"])
    def test_workers_attach_the_edge_filter_and_never_build_one(
        self, monkeypatch, engine, options, sampler
    ):
        """The filter is built once, in the parent; a worker's kernel holds
        a view of the copy in its shared segment."""
        from repro.sampling import vectorized

        parent = os.getpid()
        real_build = vectorized.build_edge_filter
        real_load = kernel_from_store

        def parent_only(edge_keys):
            assert os.getpid() == parent, "edge filter rebuilt inside a worker"
            return real_build(edge_keys)

        def checked_load(spec, sampler_mode, store):
            kernel = real_load(spec, sampler_mode, store)
            held = kernel.state_arrays()["edge_filter"]
            assert not held.flags.owndata and not held.flags.writeable
            assert np.shares_memory(held, store.arrays()[KERNEL_PREFIX + "edge_filter"])
            return kernel

        monkeypatch.setattr(vectorized, "build_edge_filter", parent_only)
        monkeypatch.setattr(f"repro.{engine}.worker.kernel_from_store", checked_load)
        graph = load_dataset("WG", scale=0.05, seed=1)
        spec = Node2VecSpec(p=2.0, q=0.5, strategy="rejection", max_length=10)
        queries = make_queries(graph, 64, seed=2)
        with prepare_engine(engine, graph, spec, sampler=sampler, **options) as pool:
            results = pool.run(queries, seed=4)  # a failed worker check raises here
        baseline, _ = run_software_walks("batch", graph, spec, queries, seed=4,
                                         sampler=sampler)
        for a, b in zip(results.paths, baseline.paths):
            assert np.array_equal(a, b)

    def test_uniform_kernel_has_no_state(self):
        from repro.walks import URWSpec
        kernel = make_kernel(URWSpec(max_length=4).make_sampler())
        kernel.prepare(cycle_graph(4))
        assert kernel.state_arrays() == {}
