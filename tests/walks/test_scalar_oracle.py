"""The scalar oracle (``tests/scalar_oracle.py``) is bit-exact to the
batch engine on every algorithm's own kernel: paths and every
``EngineStats`` counter, walk by walk.  ``test_stalls.py`` leans on it
for the retry-heavy corners; this holds the rest of what it covers —
uniform, alias, first- and second-order reservoir, edge-typed hops,
teleports and early ends."""

import functools

import pytest
from scalar_oracle import assert_same_runs, run_walks_scalar_arrays

from repro.bench.workloads import make_spec
from repro.cli import ALGORITHMS
from repro.graph import load_dataset
from repro.graph.datasets import assign_metapath_schema
from repro.sampling.vectorized import make_kernel
from repro.walks import EngineStats, make_queries
from repro.walks.base import unpack_queries
from repro.walks.batch import run_walks_batch_arrays


@functools.lru_cache(maxsize=None)
def graph():
    graph = load_dataset("WG", scale=0.06, seed=1, weighted=True)
    return assign_metapath_schema(graph, num_types=3, seed=1)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_scalar_oracle_equals_the_batch_engine(algorithm):
    spec = make_spec(algorithm)
    spec.max_length = 12
    kernel = make_kernel(spec.make_sampler())
    kernel.prepare(graph())
    ids, starts = unpack_queries(make_queries(graph(), 200, seed=3))
    runs = []
    for run in (run_walks_batch_arrays, run_walks_scalar_arrays):
        stats = EngineStats()
        paths, hops = run(graph(), spec, kernel, starts, ids, seed=7, stats=stats)
        runs.append((paths, hops, stats))
    assert_same_runs(*runs)
