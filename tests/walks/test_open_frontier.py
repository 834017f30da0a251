"""The batch engine's open run equals its closed run.

``OpenFrontier`` lets walkers join and leave between supersteps; the
contract is that nothing about *who shares a superstep with whom* can
reach a path or a counter.  Held here against ``BatchEngine.run`` on the
same ``(query id, start, seed)`` under random admission schedules, for
specs whose hooks ignore the hop and for specs whose hooks read each
walker's own hop count (MetaPath's edge type, a hop-dependent teleport).
"""

from functools import lru_cache

import numpy as np
import pytest
from stall_helpers import RETRY_HEAVY, HopTeleport

from repro.errors import GraphError, SamplingError, WalkConfigError
from repro.graph import from_edges, load_dataset
from repro.graph.datasets import assign_metapath_schema
from repro.sampling.vectorized import stream_states
from repro.walks import (
    DeepWalkSpec,
    EngineStats,
    MetaPathSpec,
    Node2VecSpec,
    PPRSpec,
    URWSpec,
)
from repro.walks.base import Query
from repro.walks.batch import BatchEngine
from repro.walks.engine import STAT_FIELDS, PreparedEngine

SEED = 9
WALKERS = 30
SCHEDULES = 20


class HopTeleportingDeepWalk(HopTeleport, DeepWalkSpec):
    pass


class HopTeleportingNode2Vec(HopTeleport, Node2VecSpec):
    pass


SPECS = {
    "PPR": PPRSpec(alpha=0.15, max_length=20),
    "DeepWalk": DeepWalkSpec(max_length=8),
    "URW": URWSpec(max_length=6),
    "Node2Vec": Node2VecSpec(max_length=7),
    # Stalled walkers share supersteps with walkers hops ahead of them.
    **{f"Node2Vec p={p} q={q}": Node2VecSpec(p=p, q=q, max_length=4) for p, q in RETRY_HEAVY},
    # Hooks that read the walker's own hop count: walkers of different
    # ages in one superstep ask them different questions.
    "MetaPath": MetaPathSpec([0, 1], max_length=8),
    "DeepWalk hop-teleport": HopTeleportingDeepWalk(max_length=10),
    "Node2Vec p=4.0 q=0.25 hop-teleport": HopTeleportingNode2Vec(p=4.0, q=0.25, max_length=6),
}


@lru_cache(maxsize=None)
def graph(typed: bool = False):
    plain = load_dataset("WG", scale=0.06, seed=1, weighted=True)
    return assign_metapath_schema(plain, num_types=2, seed=1) if typed else plain


@lru_cache(maxsize=None)
def closed_run(name: str):
    """Engine, ids, starts, and the closed run's paths and counters."""
    spec = SPECS[name]
    engine = BatchEngine(graph(typed=isinstance(spec, MetaPathSpec)), spec)
    rng = np.random.default_rng(5)
    ids = rng.permutation(10 * WALKERS)[:WALKERS]
    starts = rng.integers(0, graph().num_vertices, WALKERS)
    stats = EngineStats()
    results = engine.run(
        [Query(int(q), int(v)) for q, v in zip(ids, starts)], seed=SEED, stats=stats
    )
    return engine, ids, starts, results, [getattr(stats, name) for name in STAT_FIELDS]


def walk_out(frontier, ids, starts, rng, burst):
    """Drive one random schedule: admit 0..burst walkers, step, take."""
    paths, owner, slots_used = {}, {}, []
    nxt = 0
    while nxt < len(ids) or frontier.live:
        count = min(int(rng.integers(0, burst + 1)), frontier.free, len(ids) - nxt)
        if not frontier.live and nxt < len(ids):
            count = max(count, 1)  # an empty frontier has nothing to step
        slots = frontier.admit(ids[nxt:nxt + count], starts[nxt:nxt + count]).tolist()
        for offset, slot in enumerate(slots):
            assert slot not in owner
            owner[slot] = nxt + offset
        slots_used.extend(slots)
        nxt += count
        for slot in frontier.step().tolist():
            paths[owner.pop(slot)] = frontier.take(slot)
    assert not owner and frontier.free == frontier.capacity
    return paths, slots_used


@pytest.mark.parametrize("capacity", [1, 2, 64])
@pytest.mark.parametrize("name", list(SPECS))
def test_open_run_equals_closed_run(name, capacity):
    engine, ids, starts, results, closed_counts = closed_run(name)
    for schedule in range(SCHEDULES):
        rng = np.random.default_rng([schedule, capacity])
        order = rng.permutation(WALKERS)
        frontier = engine.open_frontier(SEED, capacity)
        paths, slots_used = walk_out(frontier, ids[order], starts[order], rng, burst=5)
        for position, walker in enumerate(order.tolist()):
            assert np.array_equal(paths[position], results.path_of(walker)), (
                f"{name} capacity {capacity} schedule {schedule}: "
                f"query {ids[walker]} walked a different path open than closed"
            )
            assert paths[position].base is None
        assert frontier.counts.tolist() == closed_counts
        # More walkers than slots went through: freed slots were reused.
        assert len(slots_used) == WALKERS
        assert len(set(slots_used)) <= min(capacity, WALKERS)
        if capacity < WALKERS:
            assert len(set(slots_used)) < len(slots_used)


def test_admit_rejects_before_seating_anything():
    engine, ids, starts, results, _ = closed_run("PPR")
    frontier = engine.open_frontier(SEED, 4)
    owner = dict(zip(frontier.admit(ids[:3], starts[:3]).tolist(), range(3)))
    before = (frontier.live, frontier.free, frontier.counts.copy())

    with pytest.raises(WalkConfigError, match="2 walkers into 1 free"):
        frontier.admit(ids[3:5], starts[3:5])
    with pytest.raises(GraphError, match="out of range"):
        frontier.admit(ids[3:4], [graph().num_vertices])
    with pytest.raises(GraphError, match="out of range"):
        frontier.admit(ids[3:4], [-1])
    with pytest.raises(SamplingError, match="non-negative"):
        frontier.admit([-1], starts[3:4])
    with pytest.raises(WalkConfigError, match="align"):
        frontier.admit(ids[3:4], starts[3:4], states=stream_states(SEED, ids[3:5]))

    assert (frontier.live, frontier.free) == before[:2]
    assert np.array_equal(frontier.counts, before[2])
    # The frontier still walks what it held, and what it now takes, exactly.
    owner[frontier.admit(ids[3:4], starts[3:4]).tolist()[0]] = 3
    while frontier.live:
        for slot in frontier.step().tolist():
            assert np.array_equal(frontier.take(slot), results.path_of(owner.pop(slot)))
    assert not owner
    with pytest.raises(WalkConfigError, match="capacity"):
        engine.open_frontier(SEED, 0)


def test_wide_pool_ids_seat_correctly():
    """Reserved cache-pool ids sit past 2**40: two entropy words."""
    engine = closed_run("PPR")[0]
    ids = np.array([(1 << 40) + 3, 7, (1 << 40) + 4, (1 << 33), 2**63 - 1])
    starts = np.arange(5) + 10
    results = engine.run([Query(int(q), int(v)) for q, v in zip(ids, starts)], seed=SEED)
    for given_states in (None, stream_states(SEED, ids)):
        frontier = engine.open_frontier(SEED, 8)
        owner = dict(zip(frontier.admit(ids, starts, given_states).tolist(), range(5)))
        while frontier.live:
            for slot in frontier.step().tolist():
                assert np.array_equal(frontier.take(slot), results.path_of(owner[slot]))


def test_abandon_frees_every_slot():
    engine, ids, starts, results, _ = closed_run("DeepWalk")
    frontier = engine.open_frontier(SEED, 8)
    frontier.admit(ids[:8], starts[:8])
    frontier.step()
    frontier.abandon()
    assert (frontier.live, frontier.free) == (0, 8)
    paths, _ = walk_out(frontier, ids[:8], starts[:8], np.random.default_rng(1), burst=8)
    for position in range(8):
        assert np.array_equal(paths[position], results.path_of(position))


def test_offered_for_every_spec():
    """Each walker carries its own hop count, so walkers of any age may
    share a superstep under any spec: the batch engine always offers
    its open form."""
    for name in SPECS:
        assert callable(closed_run(name)[0].open_frontier)
    typed = from_edges([(0, 1), (1, 0)], edge_types=[0, 1], num_vertices=2)
    engine = BatchEngine(typed.with_weights(np.ones(2)), MetaPathSpec([0, 1], max_length=5))
    # Hop k needs pattern[k % 2]: admitted a superstep apart, the two
    # walkers ask for different edge types in every shared superstep.
    frontier = engine.open_frontier(SEED, 2)
    first = frontier.admit([0], [0])[0]
    assert frontier.step().size == 0
    second = frontier.admit([1], [0])[0]
    ended = []
    while frontier.live:
        ended.extend(frontier.step().tolist())
    assert ended == [first, second]
    for slot in ended:
        assert frontier.take(slot).tolist() == [0, 1, 0, 1, 0, 1]
    # The protocol's own open form is one closed run a step; batch's is
    # its own.
    assert BatchEngine.open_frontier is not PreparedEngine.open_frontier

