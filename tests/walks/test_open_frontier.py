"""The batch engine's open run equals its closed run.

``OpenFrontier`` lets walkers join and leave between supersteps; the
contract is that nothing about *who shares a superstep with whom* can
reach a path or a counter.  Held here against ``BatchEngine.run`` on the
same ``(query id, start, seed)`` under random admission schedules.
"""

import warnings
from functools import lru_cache

import numpy as np
import pytest
from stall_helpers import RETRY_HEAVY

from repro.errors import GraphError, SamplingError, WalkConfigError
from repro.graph import from_edges, load_dataset
from repro.sampling.uniform import UniformSampler
from repro.sampling.vectorized import _SS_SCALAR_MAX_IDS, seed_sequence_states
from repro.walks import (
    DeepWalkSpec,
    EngineStats,
    MetaPathSpec,
    Node2VecSpec,
    PPRSpec,
    URWSpec,
)
from repro.walks.base import Query, WalkSpec
from repro.walks.batch import BatchEngine
from repro.walks.engine import STAT_FIELDS, PreparedEngine
from repro.walks.jit import JitEngine
from repro.walks.jit.compat import NUMBA_AVAILABLE

SEED = 9
WALKERS = 30
SCHEDULES = 20

SPECS = {
    "PPR": PPRSpec(alpha=0.15, max_length=20),
    "DeepWalk": DeepWalkSpec(max_length=8),
    "URW": URWSpec(max_length=6),
    "Node2Vec": Node2VecSpec(max_length=7),
    # Stalled walkers share supersteps with walkers hops ahead of them.
    **{f"Node2Vec p={p} q={q}": Node2VecSpec(p=p, q=q, max_length=4) for p, q in RETRY_HEAVY},
}


@lru_cache(maxsize=None)
def graph():
    return load_dataset("WG", scale=0.06, seed=1, weighted=True)


@lru_cache(maxsize=None)
def closed_run(name: str, sampler: str):
    """Engine, ids, starts, and the closed run's paths and counters."""
    engine = BatchEngine(graph(), SPECS[name], sampler)
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
@pytest.mark.parametrize("sampler", ["default", "auto"])
@pytest.mark.parametrize("name", list(SPECS))
def test_open_run_equals_closed_run(name, sampler, capacity):
    engine, ids, starts, results, closed_counts = closed_run(name, sampler)
    for schedule in range(SCHEDULES):
        rng = np.random.default_rng([schedule, capacity])
        order = rng.permutation(WALKERS)
        frontier = engine.open_frontier(SEED, capacity)
        paths, slots_used = walk_out(frontier, ids[order], starts[order], rng, burst=5)
        for position, walker in enumerate(order.tolist()):
            assert np.array_equal(paths[position], results.path_of(walker)), (
                f"{name}/{sampler} capacity {capacity} schedule {schedule}: "
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
    engine, ids, starts, results, _ = closed_run("PPR", "default")
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
        frontier.admit(ids[3:4], starts[3:4], states=seed_sequence_states(SEED, ids[3:5]))

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
    engine = closed_run("PPR", "default")[0]
    ids = np.array([(1 << 40) + 3, 7, (1 << 40) + 4, (1 << 33), 2**63 - 1])
    starts = np.arange(5) + 10
    results = engine.run([Query(int(q), int(v)) for q, v in zip(ids, starts)], seed=SEED)
    for given_states in (None, seed_sequence_states(SEED, ids)):
        frontier = engine.open_frontier(SEED, 8)
        owner = dict(zip(frontier.admit(ids, starts, given_states).tolist(), range(5)))
        while frontier.live:
            for slot in frontier.step().tolist():
                assert np.array_equal(frontier.take(slot), results.path_of(owner[slot]))


def test_abandon_frees_every_slot():
    engine, ids, starts, results, _ = closed_run("DeepWalk", "default")
    frontier = engine.open_frontier(SEED, 8)
    frontier.admit(ids[:8], starts[:8])
    frontier.step()
    frontier.abandon()
    assert (frontier.live, frontier.free) == (0, 8)
    paths, _ = walk_out(frontier, ids[:8], starts[:8], np.random.default_rng(1), burst=8)
    for position in range(8):
        assert np.array_equal(paths[position], results.path_of(position))


def test_offered_only_where_exact():
    typed = from_edges([(0, 1), (1, 0)], edge_types=[0, 1], num_vertices=2)
    typed = typed.with_weights(np.ones(2))
    spec = MetaPathSpec([0, 1], max_length=5)
    assert not spec.step_invariant and PPRSpec().step_invariant
    engine = BatchEngine(typed, spec)
    # hop k needs pattern[k]: walkers of different ages cannot share the
    # kernels' one scalar, so the engine offers closed runs only.
    assert not hasattr(engine, "open_frontier")
    assert getattr(engine, "open_frontier", None) is None
    assert engine.run([Query(0, 0)], seed=1).path_of(0).tolist() == [0, 1, 0, 1, 0, 1]
    assert hasattr(closed_run("PPR", "default")[0], "open_frontier")

    class Decaying(WalkSpec):
        """Forgets to declare itself: the flag's default keeps it closed."""

        def make_sampler(self):
            return UniformSampler()

        def termination_probability(self, step):
            return 1.0 / (step + 2)

    assert not hasattr(BatchEngine(typed, Decaying(max_length=5)), "open_frontier")
    # The protocol itself has no open form: pool engines step elsewhere.
    assert not hasattr(PreparedEngine, "open_frontier")
    # jit is the batch engine where numba is absent, and only there has a
    # superstep to open.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        jit = JitEngine(graph(), SPECS["PPR"])
    assert hasattr(jit, "open_frontier") == (not NUMBA_AVAILABLE)


class TestSeedStateRoutes:
    """A handful of ids take numpy's own SeedSequence; more take the
    array pipeline.  Same states either way."""

    def _vectorised(self, seed, ids):
        # Pad past the scalar bound so the array route runs, then cut.
        pad = np.arange(_SS_SCALAR_MAX_IDS + 1, dtype=np.uint64) + np.uint64(1 << 20)
        padded = np.concatenate([np.asarray(ids, dtype=np.uint64), pad])
        return seed_sequence_states(seed, padded)[:len(ids)]

    @pytest.mark.parametrize("count", range(1, 17))
    def test_routes_agree(self, count):
        rng = np.random.default_rng(count)
        ids = np.concatenate([
            rng.integers(0, 2**32, count - count // 3),
            rng.integers(2**32, 2**63, count // 3),
        ]).astype(np.uint64)
        rng.shuffle(ids)
        for seed in (0, 7, 2**64 - 1):
            direct = seed_sequence_states(seed, ids)
            assert np.array_equal(direct, self._vectorised(seed, ids))
            assert np.array_equal(direct, seed_sequence_states(seed, ids.tolist()))

    def test_negative_id_raises_on_the_scalar_route(self):
        for ids in ([-1], [3, -2], np.array([5, -1])):
            with pytest.raises(SamplingError, match="non-negative"):
                seed_sequence_states(1, ids)
