"""Graceful degradation when numba is absent.

The jit engine's availability contract: on a host without numba,
``--engine jit`` (and ``backend="jit"`` workers) must not crash, must
not silently change semantics, and must not nag — it emits exactly ONE
``RuntimeWarning`` naming the cause and the fix, then delegates to the
batch engine, whose results are bit-identical by contract.  These tests
force the unavailable state explicitly (``NUMBA_AVAILABLE`` patched
false, import shim reloaded against a blocked ``numba`` module) so they
pin the degradation path on every host, including ones where numba IS
installed.
"""

import importlib
import sys
import warnings

import numpy as np
import pytest

import repro.parallel.engine as parallel_engine_module
import repro.walks.jit.engine as jit_engine_module
from repro.engines import prepare_engine, run_software_walks
from repro.graph import load_dataset
from repro.walks import DeepWalkSpec, EngineStats, make_queries, run_walks_batch
from repro.walks.jit import reset_fallback_warning

SEED = 17


@pytest.fixture
def workload():
    graph = load_dataset("WG", scale=0.05, seed=1, weighted=True)
    spec = DeepWalkSpec(max_length=8)
    queries = make_queries(graph, 40, seed=5)
    return graph, spec, queries


@pytest.fixture
def numba_absent(monkeypatch):
    """Force the fallback path and a fresh one-shot warning flag."""
    monkeypatch.setattr(jit_engine_module, "NUMBA_AVAILABLE", False)
    monkeypatch.setattr(parallel_engine_module, "NUMBA_AVAILABLE", False)
    reset_fallback_warning()
    yield
    reset_fallback_warning()


def test_fallback_is_batch_identical_and_warns_once(workload, numba_absent):
    graph, spec, queries = workload
    batch_stats, jit_stats = EngineStats(), EngineStats()
    expected = run_walks_batch(graph, spec, queries, seed=SEED,
                               stats=batch_stats)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = run_software_walks("jit", graph, spec, queries, seed=SEED,
                                   stats=jit_stats)[0]
        second = run_software_walks("jit", graph, spec, queries, seed=SEED)[0]
    fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)
                and "numba" in str(w.message)]
    # One warning across two runs: informative, not nagging.
    assert len(fallback) == 1
    assert "batch" in str(fallback[0].message)
    for a, b, c in zip(expected.paths, first.paths, second.paths):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
    assert batch_stats.total_hops == jit_stats.total_hops
    assert batch_stats.per_query_hops == jit_stats.per_query_hops


def test_prepared_engine_falls_back_too(workload, numba_absent):
    graph, spec, queries = workload
    expected = run_walks_batch(graph, spec, queries, seed=SEED)
    with pytest.warns(RuntimeWarning, match="numba"):
        with prepare_engine("jit", graph, spec) as engine:
            results = engine.run(queries, seed=SEED)
    for a, b in zip(expected.paths, results.paths):
        assert np.array_equal(a, b)


def test_parallel_backend_downgrades_in_the_parent(workload, numba_absent):
    """The parent downgrades ``backend="jit"`` before the pool spawns so
    workers never see an unrunnable backend; results stay batch-equal."""
    graph, spec, queries = workload
    expected = run_walks_batch(graph, spec, queries, seed=SEED)
    with pytest.warns(RuntimeWarning, match="numba"):
        results, _ = run_software_walks("parallel", graph, spec, queries,
                                        seed=SEED, workers=2, backend="jit")
    for a, b in zip(expected.paths, results.paths):
        assert np.array_equal(a, b)


def test_import_shim_survives_missing_numba(monkeypatch):
    """With ``import numba`` failing, the compat shim must load with
    ``NUMBA_AVAILABLE = False`` and an identity ``njit`` (bare and
    parametrized forms both) so kernel modules stay importable."""
    import repro.walks.jit.compat as compat

    monkeypatch.setitem(sys.modules, "numba", None)
    try:
        importlib.reload(compat)
        assert compat.NUMBA_AVAILABLE is False

        def plain(x):
            return x + 1

        assert compat.njit(plain) is plain          # @njit
        assert compat.njit(cache=True)(plain) is plain  # @njit(cache=True)
        assert compat.njit(plain)(2) == 3
    finally:
        monkeypatch.undo()
        importlib.reload(compat)
