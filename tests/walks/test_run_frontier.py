"""The protocol's own frontier: every step is one closed ``run``.

``PreparedEngine.open_frontier`` gives an engine that has only ``run`` —
``reference``, a ``.run``-only proxy, a test double — the interface the
serving dispatcher steps (``capacity``, ``free``, ``live``, ``counts``,
``admit``, ``step``, ``take``, ``abandon``).  A step ends every seated
walker, and whatever the admission schedule, the paths and counters
equal one closed run of the same queries.
"""

import numpy as np
import pytest

from repro.engines import prepare_engine
from repro.errors import ReproError, WalkConfigError
from repro.graph import load_dataset
from repro.walks import EngineStats, PPRSpec
from repro.walks.base import Query
from repro.walks.batch import BatchEngine
from repro.walks.engine import STAT_FIELDS, PreparedEngine, RunFrontier

SEED = 4
WALKERS = 24
GRAPH = load_dataset("WG", scale=0.05, seed=1, weighted=True)
SPEC = PPRSpec(alpha=0.2, max_length=12)


class RunOnlyBatch(PreparedEngine):
    """The batch engine behind ``run`` alone; ``armed`` makes the next
    run raise once."""

    name = "run-only-batch"

    def __init__(self):
        self.inner = BatchEngine(GRAPH, SPEC)
        self.armed = False

    def run(self, queries, seed=0, stats=None):
        if self.armed:
            self.armed = False
            raise ReproError("injected run failure")
        return self.inner.run(queries, seed=seed, stats=stats)


ENGINES = {
    "reference": lambda: prepare_engine("reference", GRAPH, SPEC),
    "run-only batch": RunOnlyBatch,
}

RNG = np.random.default_rng(6)
IDS = RNG.permutation(10 * WALKERS)[:WALKERS]
STARTS = RNG.integers(0, GRAPH.num_vertices, WALKERS)


def closed(engine):
    stats = EngineStats()
    results = engine.run([Query(int(q), int(v)) for q, v in zip(IDS, STARTS)],
                         seed=SEED, stats=stats)
    return results, [getattr(stats, name) for name in STAT_FIELDS]


@pytest.mark.parametrize("capacity", [1, 5, WALKERS])
@pytest.mark.parametrize("name", list(ENGINES))
def test_steps_equal_one_closed_run(name, capacity):
    engine = ENGINES[name]()
    results, counts = closed(engine)
    frontier = engine.open_frontier(SEED, capacity)
    assert isinstance(frontier, RunFrontier)
    assert (frontier.capacity, frontier.free, frontier.live) == (capacity, capacity, 0)
    rng = np.random.default_rng(capacity)
    paths, nxt = {}, 0
    while nxt < WALKERS:
        count = min(int(rng.integers(1, frontier.free + 1)), WALKERS - nxt)
        slots = frontier.admit(IDS[nxt:nxt + count], STARTS[nxt:nxt + count]).tolist()
        assert frontier.live == count and frontier.free == capacity - count
        ended = frontier.step().tolist()
        # Every seated walker ends in the step that runs it.
        assert ended == slots and frontier.live == 0
        for offset, slot in enumerate(ended):
            paths[nxt + offset] = frontier.take(slot)
        assert frontier.free == capacity
        nxt += count
    for walker in range(WALKERS):
        assert np.array_equal(paths[walker], results.path_of(walker)), walker
        assert paths[walker].base is None
    assert frontier.counts.tolist() == counts


@pytest.mark.parametrize("name", list(ENGINES))
def test_abandon_frees_every_slot(name):
    engine = ENGINES[name]()
    results, _ = closed(engine)
    frontier = engine.open_frontier(SEED, 6)
    frontier.admit(IDS[:3], STARTS[:3])
    frontier.step()  # three ended and untaken
    frontier.admit(IDS[3:5], STARTS[3:5])  # two seated
    frontier.abandon()
    assert (frontier.live, frontier.free) == (0, 6)
    slots = frontier.admit(IDS[:6], STARTS[:6]).tolist()
    assert sorted(frontier.step().tolist()) == sorted(slots)
    for walker, slot in enumerate(slots):
        assert np.array_equal(frontier.take(slot), results.path_of(walker))


def test_a_raising_run_leaves_the_frontier_reusable_after_abandon():
    engine = RunOnlyBatch()
    results, _ = closed(engine)
    frontier = engine.open_frontier(SEED, 4)
    frontier.admit(IDS[:4], STARTS[:4])
    engine.armed = True
    with pytest.raises(ReproError, match="injected"):
        frontier.step()
    assert frontier.counts.tolist() == [0] * len(STAT_FIELDS)
    frontier.abandon()
    assert (frontier.live, frontier.free) == (0, 4)
    slots = frontier.admit(IDS[:4], STARTS[:4]).tolist()
    assert frontier.step().tolist() == slots
    for walker, slot in enumerate(slots):
        assert np.array_equal(frontier.take(slot), results.path_of(walker))


def test_admit_refuses_more_walkers_than_free_slots():
    frontier = RunOnlyBatch().open_frontier(SEED, 2)
    with pytest.raises(WalkConfigError, match="2 free"):
        frontier.admit(IDS[:3], STARTS[:3])
    with pytest.raises(WalkConfigError, match="2 free"):
        frontier.admit(IDS[:2], STARTS[:1])
    # A float start is refused, not truncated to the vertex below it.
    with pytest.raises(WalkConfigError, match="start_vertex must be an integer"):
        frontier.admit(IDS[:2], [1.5, 2.0])
    assert (frontier.live, frontier.free) == (0, 2)
    with pytest.raises(WalkConfigError, match="capacity"):
        RunOnlyBatch().open_frontier(SEED, 0)
