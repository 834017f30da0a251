"""Property sweep for the specs' own kernels over adversarial rows.

Every engine samples through ``make_kernel(spec.make_sampler())``, so
each algorithm's kernel is held to four contracts on 24 seeded graphs:

1. **Batch equals the scalar oracle.**  The frontier engine and the
   one-walker-at-a-time loop of ``tests/scalar_oracle.py`` agree on
   every path and every ``EngineStats`` counter, walk by walk.
2. **Grouped dispatch equals per-query dispatch.**  A walker draws only
   from its own substream, so a query run alone takes the path it took
   in the batch, whatever rows its batch-mates sat on.
3. **A swapped engine equals a fresh one.**  After adversarial updates
   to a dynamic graph, an engine swapped onto the snapshot — reading the
   incrementally maintained sampler state — walks exactly as an engine
   prepared on a from-scratch build of the same edge set.
4. **Serving agrees** (slow): batch, the serve layer and its offline
   replay give bit-identical paths.

Each seed builds a graph stacking the rows a sampler's corner cases sit
on: a skewed hub, dominant-first-edge and dominant-last-edge rows, an
all-equal-weight row, a degree-1 row, a dangling vertex and a spray of
small weighted rows.
"""

import asyncio
import inspect

import numpy as np
import pytest
from scalar_oracle import assert_same_runs, run_walks_scalar_arrays

from repro.dynamic import DynamicGraph
from repro.dynamic.bench import fresh_static_build, snapshot_matches_static
from repro.engines import prepare_engine
from repro.graph import from_edges
from repro.graph.datasets import assign_metapath_schema
import repro.sampling
from repro.sampling import vectorized
from repro.sampling.base import Sampler
from repro.sampling.vectorized import VectorizedKernel, make_kernel
from repro.walks import (
    DeepWalkSpec,
    EngineStats,
    MetaPathSpec,
    Node2VecSpec,
    PPRSpec,
    URWSpec,
    make_queries,
    run_walks_batch,
)
from repro.walks.base import unpack_queries
from repro.walks.batch import run_walks_batch_arrays

#: The sweep's seed universe.
SEEDS = tuple(range(24))

NUM_QUERIES = 30
WALK_LENGTH = 8

#: ``name -> (spec factory, weighted, typed)``: every spec kernel, with
#: alias on both weighted and unweighted rows (their slots are built
#: differently) and rejection at an accepting and a retry-hostile (p, q).
CASES = {
    "URW": (lambda: URWSpec(max_length=WALK_LENGTH), False, False),
    "PPR": (lambda: PPRSpec(alpha=0.15, max_length=WALK_LENGTH), False, False),
    "DeepWalk": (lambda: DeepWalkSpec(max_length=WALK_LENGTH), True, False),
    "DeepWalk-unweighted": (lambda: DeepWalkSpec(max_length=WALK_LENGTH), False, False),
    "Node2Vec": (lambda: Node2VecSpec(p=2.0, q=0.5, max_length=WALK_LENGTH), False, False),
    "Node2Vec-retry": (lambda: Node2VecSpec(p=8.0, q=8.0, max_length=WALK_LENGTH),
                       False, False),
    "Node2Vec-reservoir": (lambda: Node2VecSpec(p=2.0, q=0.5, strategy="reservoir",
                                                max_length=WALK_LENGTH), True, False),
    "MetaPath": (lambda: MetaPathSpec(pattern=[0, 1, 2], max_length=WALK_LENGTH), True, True),
}

#: A dynamic graph holds no edge types, so MetaPath sits out contract 3.
UNTYPED_CASES = [name for name, (_, _, typed) in CASES.items() if not typed]


def adversarial_graph(seed, weighted=True, typed=False):
    """A graph stacking every row archetype a sampler branches on."""
    rng = np.random.default_rng((seed, 0xAD))
    n = 24
    edges, weights = [], []

    def add_row(src, dsts, row_weights):
        for dst, w in zip(dsts, row_weights):
            edges.append((src, int(dst)))
            weights.append(float(w))

    others = np.arange(1, n)
    # Vertex 0: skewed hub.
    dsts = rng.choice(others, size=20, replace=False)
    add_row(0, dsts, np.arange(1, 21, dtype=float))
    # Vertex 1: one dominant *first* edge.
    dsts = rng.choice(others[others != 1], size=12, replace=False)
    add_row(1, dsts, [1000.0] + [0.01] * 11)
    # Vertex 2: one dominant *last* edge.
    dsts = rng.choice(others[others != 2], size=12, replace=False)
    add_row(2, dsts, [0.01] * 11 + [1000.0])
    # Vertex 3: all-equal weights — the weighted draw degenerates to uniform.
    dsts = rng.choice(others[others != 3], size=6, replace=False)
    add_row(3, dsts, [2.5] * 6)
    # Vertex 4: degree 1.
    add_row(4, [int(rng.integers(5, n))], [3.0])
    # Vertex 5: dangling (degree 0) — walks end, the sampler is never called.
    # Vertices 6..: small weighted rows pointing anywhere.
    for v in range(6, n):
        degree = int(rng.integers(2, 7))
        candidates = others[others != v]
        dsts = rng.choice(candidates, size=degree, replace=False)
        add_row(v, dsts, rng.uniform(0.5, 4.0, size=degree))

    graph = from_edges(edges, num_vertices=n, weights=weights if weighted else None,
                       name=f"adversarial-{seed}")
    return assign_metapath_schema(graph, num_types=3, seed=seed) if typed else graph


def case_inputs(name, seed):
    """``(graph, spec, queries)`` of one case on one seed's graph."""
    make_spec, weighted, typed = CASES[name]
    graph = adversarial_graph(seed, weighted=weighted, typed=typed)
    queries = make_queries(graph, NUM_QUERIES, seed=seed + 1, require_outgoing=False)
    return graph, make_spec(), queries


def concrete_subclasses(namespace, base):
    """The non-abstract subclasses of ``base`` among ``namespace``'s values."""
    return {value for value in namespace if inspect.isclass(value)
            and issubclass(value, base) and not inspect.isabstract(value)}


def case_samplers():
    return [make_spec().make_sampler() for make_spec, _, _ in CASES.values()]


def test_the_cases_cover_every_kernel():
    """Structural guard: the specs the sweep runs select exactly the
    concrete kernels ``repro.sampling.vectorized`` defines — no kernel
    without a spec that selects it, and none escapes the contracts
    below."""
    defined = {kernel for kernel in concrete_subclasses(vars(vectorized).values(),
                                                        VectorizedKernel)
               if kernel.__module__ == vectorized.__name__}
    assert {type(make_kernel(sampler)) for sampler in case_samplers()} == defined


def test_the_cases_cover_every_sampler():
    """Structural guard: the specs the sweep runs select exactly the
    samplers ``repro.sampling`` exports."""
    exported = concrete_subclasses(
        (getattr(repro.sampling, name) for name in repro.sampling.__all__), Sampler)
    assert {type(sampler) for sampler in case_samplers()} == exported


def prepared_kernel(graph, spec):
    kernel = make_kernel(spec.make_sampler())
    kernel.prepare(graph)
    return kernel


def assert_same_results(a, b):
    assert a.num_queries == b.num_queries
    for pa, pb in zip(a.paths, b.paths, strict=True):
        assert np.array_equal(pa, pb)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_batch_equals_the_scalar_oracle(case, seed):
    """Contract 1."""
    graph, spec, queries = case_inputs(case, seed)
    kernel = prepared_kernel(graph, spec)
    ids, starts = unpack_queries(queries)
    runs = []
    for run in (run_walks_batch_arrays, run_walks_scalar_arrays):
        stats = EngineStats()
        paths, hops = run(graph, spec, kernel, starts, ids, seed=seed + 2, stats=stats)
        runs.append((paths, hops, stats))
    assert_same_runs(*runs)
    # The dangling vertex and the degree-1 row are in play.
    assert runs[0][2].total_hops > 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", CASES)
def test_grouped_dispatch_equals_per_query(case, seed):
    """Contract 2."""
    graph, spec, queries = case_inputs(case, seed)
    kernel = prepared_kernel(graph, spec)
    batch = run_walks_batch(graph, spec, queries, seed=seed + 2, kernel=kernel)
    for position, query in enumerate(queries):
        alone = run_walks_batch(graph, spec, [query], seed=seed + 2, kernel=kernel)
        assert np.array_equal(alone.path_of(0), batch.paths[position]), query


def adversarial_updates(dynamic, seed, weighted):
    """Dirty every archetype: equalise the dominant-first row, strip a
    small row to degree 0 and re-add one edge, give the dangling vertex
    a row, and (weighted) churn a random row's weights.  A duplicate
    insert re-weights an edge in place."""
    rng = np.random.default_rng((seed, 0x5E))

    def neighbors(vertex):
        return dynamic._merged_row(vertex)[0]

    dominant = neighbors(1)
    if weighted:
        dynamic.add_edges([(1, int(d)) for d in dominant], [1.0] * dominant.size)
    else:
        dynamic.remove_edges([(1, int(d)) for d in dominant[: dominant.size // 2]])
    victim = 6
    dynamic.remove_edges([(victim, int(d)) for d in neighbors(victim)])
    dynamic.add_edges([(victim, 0)], [2.0] if weighted else None)
    dynamic.add_edges([(5, 1), (5, 2), (5, 3)], [9.0, 0.01, 0.01] if weighted else None)
    churn = int(rng.integers(7, dynamic.num_vertices))
    if weighted:
        for dst in neighbors(churn):
            dynamic.add_edges([(churn, int(dst))], [float(rng.uniform(0.1, 10.0))])
    else:
        dynamic.remove_edges([(churn, int(neighbors(churn)[0]))])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", UNTYPED_CASES)
def test_swapped_engine_equals_fresh_engine(case, seed):
    """Contract 3."""
    base, spec, queries = case_inputs(case, seed)
    dynamic = DynamicGraph(base)
    with prepare_engine("batch", dynamic.snapshot().graph, spec) as engine:
        adversarial_updates(dynamic, seed, base.is_weighted)
        # Built before a snapshot adopts the new epoch as the base: the
        # full merge of base and overlay, not the snapshot's own edges.
        static_graph, static_state = fresh_static_build(dynamic)
        snapshot = dynamic.snapshot()
        assert snapshot.epoch == 1
        engine.swap_snapshot(snapshot)
        assert snapshot_matches_static(snapshot, static_graph, static_state)
        assert_same_results(engine.run(queries, seed=seed + 2),
                            run_walks_batch(static_graph, spec, queries, seed=seed + 2))


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("case", ["DeepWalk", "Node2Vec"])
def test_engines_and_serve_replay_agree(case, seed):
    """Contract 4."""
    from repro.serve import ServeConfig, WalkService, replay_paths

    graph, spec, queries = case_inputs(case, seed)
    run_seed = seed + 2
    batch = run_walks_batch(graph, spec, queries, seed=run_seed)

    requests = {q.query_id: q.start_vertex for q in queries}
    oracle = replay_paths(graph, spec, requests, seed=run_seed)
    for position, query in enumerate(queries):
        assert np.array_equal(oracle[query.query_id], batch.paths[position])

    async def _serve():
        config = ServeConfig(max_batch=7, max_wait_ms=20.0, queue_depth=4 * NUM_QUERIES)
        async with WalkService(graph, spec, engine="batch", seed=run_seed,
                               config=config) as service:
            futures = {
                q.query_id: service.try_submit(q.start_vertex, query_id=q.query_id)
                for q in queries
            }
            return {query_id: (await future).path_of(0)
                    for query_id, future in futures.items()}

    for query_id, path in asyncio.run(_serve()).items():
        assert np.array_equal(path, oracle[query_id])
