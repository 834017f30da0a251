"""Property sweep: incremental maintenance == from-scratch build, bit for bit.

For >= 20 seeds, a random insert/delete/reweight sequence (with forced
degenerate cases: vertices dropping to degree 0, duplicate inserts,
remove-then-readd) is streamed into a ``DynamicGraph``; after every
batch the published snapshot — CSR arrays *and* every prepared sampler
structure (packed alias slots, the edge set's arrays) — must equal a
from-scratch build of the same logical edge set computed with the
repo's own builders (``from_edges``, ``build_alias_table``,
``EdgeSet.build``), bit-identically.  The edge set comes from every
op replayed into a plain dict, not from the dynamic graph: once a
snapshot is published its own edges are that snapshot's.  This is the
invariant the engine-swap and serving layers rely on.
"""

import numpy as np
import pytest

from repro.dynamic import DynamicGraph
from repro.graph import from_edges
from repro.sampling import SamplerState

NUM_SEEDS = 24
NUM_VERTICES = 24
BATCHES_PER_SEED = 5


def random_base(rng, weighted):
    """A random base graph and its edge set as the oracle dict
    ``(src, dst) -> weight`` (1.0 on unweighted graphs)."""
    edges = [
        (s, d)
        for s in range(NUM_VERTICES)
        for d in range(NUM_VERTICES)
        if s != d and rng.random() < 0.18
    ]
    weights = rng.uniform(0.5, 2.0, size=len(edges)) if weighted else None
    base = from_edges(edges, num_vertices=NUM_VERTICES, weights=weights,
                      name="prop")
    return base, dict(zip(edges, weights.tolist() if weighted else [1.0] * len(edges)))


def fresh_build(model: dict, weighted: bool):
    edges = sorted(model)
    rebuilt = from_edges(edges, num_vertices=NUM_VERTICES,
                         weights=[model[e] for e in edges] if weighted else None,
                         name="prop")
    return rebuilt, SamplerState.of(rebuilt)


def prepared_arrays(state) -> dict:
    """Every member of ``state`` (read, so built), as the named arrays its
    kernels read."""
    edge_set = state.edge_set
    return {"alias_slots": state.alias_slots, "edge_filter": edge_set.filter,
            "edge_table": edge_set.table, "edge_overflow": edge_set.overflow,
            "edge_stash": edge_set.stash}


def assert_snapshot_matches(snapshot, model: dict, weighted, context: str):
    rebuilt, state = fresh_build(model, weighted)
    assert np.array_equal(snapshot.graph.row_ptr, rebuilt.row_ptr), context
    assert np.array_equal(snapshot.graph.col, rebuilt.col), context
    if rebuilt.is_weighted:
        assert np.array_equal(snapshot.graph.weights, rebuilt.weights), context
    else:
        assert snapshot.graph.weights is None, context
    ours = prepared_arrays(snapshot.sampler_state)
    for name, expected in prepared_arrays(state).items():
        actual = ours[name]
        assert np.array_equal(actual, expected), f"{context}: {name}"
        assert (actual.dtype, actual.tobytes()) == (expected.dtype, expected.tobytes()), \
            f"{context}: {name} differs in its bytes"


def add(graph: DynamicGraph, model: dict, picks, weights):
    graph.add_edges(picks, weights=weights)
    model.update(zip(picks, [1.0] * len(picks) if weights is None else weights.tolist()))


def remove(graph: DynamicGraph, model: dict, picks):
    graph.remove_edges(picks)
    for edge in picks:
        del model[edge]


def random_mutation(rng, graph: DynamicGraph, model: dict, weighted):
    """One random batch of ops, biased to hit degenerate paths, applied
    to the dynamic graph and to the oracle dict alike."""
    present = set(model)
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
        add(graph, model, picks,
            rng.uniform(0.5, 2.0, size=len(picks)) if weighted else None)
    elif kind == 1 and present:  # plain deletes
        pool = sorted(present)
        picks = [pool[i] for i in rng.choice(len(pool),
                                             size=min(6, len(pool)),
                                             replace=False)]
        remove(graph, model, picks)
    elif kind == 2 and present and weighted:  # reweights: duplicate inserts
        pool = sorted(present)
        picks = [pool[i] for i in rng.choice(len(pool),
                                             size=min(6, len(pool)),
                                             replace=False)]
        add(graph, model, picks, rng.uniform(0.5, 2.0, size=len(picks)))
    elif kind == 3 and present:  # drop one vertex to degree 0, then readd
        vertex = int(sorted({s for s, _ in present})[
            rng.integers(0, len({s for s, _ in present}))])
        row = [(vertex, int(d)) for d in graph._merged_row(vertex)[0]]
        assert sorted(row) == sorted(e for e in present if e[0] == vertex)
        remove(graph, model, row)
        assert graph._merged_row(vertex)[0].size == 0
        readd = row[: max(1, len(row) // 2)]
        add(graph, model, readd,
            rng.uniform(0.5, 2.0, size=len(readd)) if weighted else None)
    elif present:  # duplicate inserts (weight overwrite / no-op)
        pool = sorted(present)
        picks = [pool[i] for i in rng.choice(len(pool),
                                             size=min(4, len(pool)),
                                             replace=False)]
        add(graph, model, picks,
            rng.uniform(0.5, 2.0, size=len(picks)) if weighted else None)


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
@pytest.mark.parametrize("weighted", [True, False],
                         ids=["weighted", "unweighted"])
def test_incremental_rebuild_bit_identical(seed, weighted):
    rng = np.random.default_rng((seed, 17, weighted))
    base, model = random_base(rng, weighted)
    graph = DynamicGraph(base)
    assert_snapshot_matches(graph.snapshot(), model, weighted, f"seed {seed} epoch 0")
    for batch in range(BATCHES_PER_SEED):
        random_mutation(rng, graph, model, weighted)
        snapshot = graph.snapshot()
        assert_snapshot_matches(
            snapshot, model, weighted,
            f"seed {seed} batch {batch} (epoch {snapshot.epoch})"
        )


@pytest.mark.parametrize("seed", range(0, NUM_SEEDS, 4))
def test_incremental_rebuild_survives_a_skipped_snapshot(seed):
    """Same invariant with one snapshot skipped mid-sequence, so the
    overlay holds two batches over one base."""
    rng = np.random.default_rng((seed, 23))
    base, model = random_base(rng, True)
    graph = DynamicGraph(base)
    graph.snapshot()
    for batch in range(BATCHES_PER_SEED):
        random_mutation(rng, graph, model, True)
        if batch == 2:
            assert graph.delta_edges > 0
            continue
        assert_snapshot_matches(graph.snapshot(), model, True,
                                f"seed {seed} batch {batch} (skipped one)")
    assert graph.epoch == BATCHES_PER_SEED - 1
