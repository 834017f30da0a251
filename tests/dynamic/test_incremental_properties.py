"""Property sweep: incremental maintenance == from-scratch build, bit for bit.

For >= 20 seeds, a random insert/delete/reweight sequence (with forced
degenerate cases: vertices dropping to degree 0, duplicate inserts,
remove-then-readd) is streamed into a ``DynamicGraph``; after every
batch the published snapshot — CSR arrays *and* every prepared sampler
structure (packed alias slots, ITS CDF rows, edge keys) — must equal a
from-scratch build of the same logical edge set computed with the
repo's own builders (``from_edges``, ``build_alias_table``,
``build_edge_keys``), bit-identically.  This is the invariant the
engine-swap and serving layers rely on.
"""

import numpy as np
import pytest

from repro.dynamic import DynamicGraph, SamplerState
from repro.graph import from_edges

NUM_SEEDS = 24
NUM_VERTICES = 24
BATCHES_PER_SEED = 5


def random_base(rng, weighted):
    edges = [
        (s, d)
        for s in range(NUM_VERTICES)
        for d in range(NUM_VERTICES)
        if s != d and rng.random() < 0.18
    ]
    weights = rng.uniform(0.5, 2.0, size=len(edges)) if weighted else None
    return from_edges(edges, num_vertices=NUM_VERTICES, weights=weights,
                      name="prop")


def fresh_build(graph: DynamicGraph):
    edges, weights = graph.logical_edges()
    rebuilt = from_edges(edges, num_vertices=graph.num_vertices,
                         weights=weights, name="prop")
    return rebuilt, SamplerState.full_build(rebuilt)


def assert_snapshot_matches(snapshot, graph: DynamicGraph, context: str):
    rebuilt, state = fresh_build(graph)
    assert np.array_equal(snapshot.graph.row_ptr, rebuilt.row_ptr), context
    assert np.array_equal(snapshot.graph.col, rebuilt.col), context
    if rebuilt.is_weighted:
        assert np.array_equal(snapshot.graph.weights, rebuilt.weights), context
    else:
        assert snapshot.graph.weights is None, context
    for name, expected in state.arrays().items():
        actual = snapshot.sampler_state.arrays()[name]
        assert np.array_equal(actual, expected), f"{context}: {name}"
        assert (actual.dtype, actual.tobytes()) == (expected.dtype, expected.tobytes()), \
            f"{context}: {name} differs in its bytes"


def random_mutation(rng, graph: DynamicGraph, weighted):
    """One random batch of ops, biased to hit degenerate paths."""
    present = {tuple(int(x) for x in e) for e in graph.logical_edges()[0]}
    absent = [
        (s, d)
        for s in range(NUM_VERTICES)
        for d in range(NUM_VERTICES)
        if s != d and (s, d) not in present
    ]
    kind = rng.integers(0, 5)
    if kind == 0 and absent:  # plain inserts
        picks = [absent[i] for i in rng.choice(len(absent),
                                               size=min(6, len(absent)),
                                               replace=False)]
        graph.add_edges(picks, weights=(
            rng.uniform(0.5, 2.0, size=len(picks)) if weighted else None))
    elif kind == 1 and present:  # plain deletes
        pool = sorted(present)
        picks = [pool[i] for i in rng.choice(len(pool),
                                             size=min(6, len(pool)),
                                             replace=False)]
        graph.remove_edges(picks)
    elif kind == 2 and present and weighted:  # reweights
        pool = sorted(present)
        picks = [pool[i] for i in rng.choice(len(pool),
                                             size=min(6, len(pool)),
                                             replace=False)]
        graph.update_weights(picks, rng.uniform(0.5, 2.0, size=len(picks)))
    elif kind == 3 and present:  # drop one vertex to degree 0, then readd
        vertex = int(sorted({s for s, _ in present})[
            rng.integers(0, len({s for s, _ in present}))])
        row = [(vertex, int(d)) for d in graph.neighbors(vertex)]
        graph.remove_edges(row)
        assert graph.degree(vertex) == 0
        readd = row[: max(1, len(row) // 2)]
        graph.add_edges(readd, weights=(
            rng.uniform(0.5, 2.0, size=len(readd)) if weighted else None))
    elif present:  # duplicate inserts (weight overwrite / no-op)
        pool = sorted(present)
        picks = [pool[i] for i in rng.choice(len(pool),
                                             size=min(4, len(pool)),
                                             replace=False)]
        graph.add_edges(picks, weights=(
            rng.uniform(0.5, 2.0, size=len(picks)) if weighted else None))


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
@pytest.mark.parametrize("weighted", [True, False],
                         ids=["weighted", "unweighted"])
def test_incremental_rebuild_bit_identical(seed, weighted):
    rng = np.random.default_rng((seed, 17, weighted))
    graph = DynamicGraph(random_base(rng, weighted))
    assert_snapshot_matches(graph.snapshot(), graph, f"seed {seed} epoch 0")
    for batch in range(BATCHES_PER_SEED):
        random_mutation(rng, graph, weighted)
        snapshot = graph.snapshot()
        assert_snapshot_matches(
            snapshot, graph, f"seed {seed} batch {batch} (epoch {snapshot.epoch})"
        )


@pytest.mark.parametrize("seed", range(0, NUM_SEEDS, 4))
def test_incremental_rebuild_survives_forced_compaction(seed):
    """Same invariant with a compaction interleaved mid-sequence."""
    rng = np.random.default_rng((seed, 23))
    graph = DynamicGraph(random_base(rng, True))
    graph.snapshot()
    for batch in range(BATCHES_PER_SEED):
        random_mutation(rng, graph, True)
        if batch == 2:
            graph.compact()
        assert_snapshot_matches(graph.snapshot(), graph,
                                f"seed {seed} batch {batch} (compacting)")
    assert graph.compactions >= 1
