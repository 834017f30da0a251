"""Cross-engine equivalence matrix: every algorithm x every software engine.

One parametrized test class sweeps the full CLI algorithm list (``URW``,
``PPR``, ``DeepWalk``, ``Node2Vec``, ``Node2Vec-reservoir``, ``MetaPath``)
across the ``reference`` and ``batch`` engines, holding each cell to
exact determinism — every engine re-run at the same seed must be
bit-identical to itself, and a ``WalkBatch`` walks like its ``Query``
list.  (That ``batch`` is bit-identical whatever its lane count is
``tests/walks/test_lanes.py``'s job.)

Across engines, one cell per algorithm holds ``reference`` to ``batch``
exactly: both draw each query's one stream in the same order, so paths
and every ``EngineStats`` counter are equal (the cycle model walks the
same paths too: ``tests/sim/test_sim_equals_batch.py``).  Distributional
checks live where a distribution is all there is: the batch walk and the
samplers against exact laws (``tests/walks/test_batch.py``,
``tests/sampling/test_statistical_coverage.py``).

Every cell *runs*: a cell an engine cannot execute must be listed in
``XFAIL_CELLS`` with a tracking reason so the gap stays visible in test
output instead of silently skipping.  (Today the map is empty — all 12
cells execute.)
"""

import dataclasses
import functools

import numpy as np
import pytest
from stat_helpers import assert_reference_equals_batch

from repro.bench.workloads import make_spec
from repro.cli import ALGORITHMS
from repro.engines import SOFTWARE_ENGINES, run_software_walks
from repro.walks import EngineStats, WalkBatch
from repro.graph import load_dataset
from repro.graph.datasets import assign_metapath_schema

SOFTWARE_ENGINE_NAMES = tuple(sorted(SOFTWARE_ENGINES))

#: (algorithm, engine) -> tracking reason.  A cell here still runs; it
#: is reported xfail (and flags unexpectedly-passing with ``strict``)
#: rather than vanishing from the matrix.
XFAIL_CELLS: dict[tuple[str, str], str] = {}

NUM_QUERIES = 300
WALK_LENGTH = 12
RUN_SEED = 31


@functools.lru_cache(maxsize=None)
def _graph():
    """One weighted, metapath-typed graph serves every algorithm: uniform
    samplers ignore the weights, typed hops have types to follow."""
    graph = load_dataset("WG", scale=0.08, seed=1, weighted=True)
    return assign_metapath_schema(graph, num_types=3, seed=1)


@functools.lru_cache(maxsize=None)
def _queries(algorithm):
    from repro.walks import make_queries

    return tuple(make_queries(_graph(), NUM_QUERIES, seed=5))


def _spec(algorithm):
    spec = make_spec(algorithm)
    spec.max_length = WALK_LENGTH
    return spec


@functools.lru_cache(maxsize=None)
def _run(algorithm, engine, seed):
    """One engine run per (cell, seed), cached so determinism re-runs and
    cross-engine comparisons don't recompute the matrix."""
    results, _ = run_software_walks(
        engine, _graph(), _spec(algorithm), list(_queries(algorithm)), seed=seed
    )
    return results


def _cell_params():
    # A list, not a generator: the class-level parametrize applies to
    # two test methods, and a generator would be exhausted by the first.
    params = []
    for algorithm in ALGORITHMS:
        for engine in SOFTWARE_ENGINE_NAMES:
            marks = []
            if (algorithm, engine) in XFAIL_CELLS:
                marks.append(pytest.mark.xfail(
                    reason=XFAIL_CELLS[(algorithm, engine)], strict=True
                ))
            params.append(pytest.param(algorithm, engine, marks=marks,
                                       id=f"{algorithm}-{engine}"))
    return params


@pytest.mark.parametrize("algorithm,engine", _cell_params())
class TestEngineMatrix:
    def test_deterministic_in_seed(self, algorithm, engine):
        """Two runs at one seed are bit-identical (every engine)."""
        first = _run(algorithm, engine, RUN_SEED)
        again, _ = run_software_walks(
            engine, _graph(), _spec(algorithm), list(_queries(algorithm)), seed=RUN_SEED
        )
        assert first.num_queries == again.num_queries == NUM_QUERIES
        for a, b in zip(first.paths, again.paths):
            assert np.array_equal(a, b)

    def test_walk_batch_runs_like_its_query_list(self, algorithm, engine):
        """A batch given as two arrays walks exactly as the equal list of
        ``Query`` objects does: same paths, every counter equal."""
        batch = WalkBatch.of(list(_queries(algorithm)))
        stats = EngineStats(), EngineStats()
        (from_batch, _), (from_list, _) = (
            run_software_walks(engine, _graph(), _spec(algorithm), queries,
                               seed=RUN_SEED, stats=run_stats)
            for queries, run_stats in zip((batch, list(batch)), stats)
        )
        assert from_batch.num_queries == from_list.num_queries == NUM_QUERIES
        for a, b in zip(from_batch.paths, from_list.paths):
            assert np.array_equal(a, b)
        assert dataclasses.asdict(stats[0]) == dataclasses.asdict(stats[1])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_reference_equals_batch(algorithm):
    """The scalar loop and the frontier walk bit-identically: every path,
    every ``EngineStats`` counter."""
    stats = assert_reference_equals_batch(_graph(), _spec(algorithm),
                                          list(_queries(algorithm)), RUN_SEED)
    assert stats.total_hops > NUM_QUERIES


def test_matrix_covers_every_cell():
    """The parametrization sweeps the full cross product — nobody can
    drop a cell without this inventory noticing."""
    cells = {(a, e) for a in ALGORITHMS for e in SOFTWARE_ENGINE_NAMES}
    assert len(cells) == len(ALGORITHMS) * len(SOFTWARE_ENGINE_NAMES) == 12
    params = {(algorithm, engine) for algorithm, engine, *_ in
              (p.values for p in _cell_params())}
    assert params == cells
    assert set(XFAIL_CELLS) <= cells
