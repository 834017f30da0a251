"""Stalls: a rejected proposal retries in the next superstep.

``RejectionKernel`` runs one proposal round per call and reports the
walkers it left undecided; :func:`~repro.walks.batch.superstep` keeps
them where they are, so the superstep is the retry loop.  A walker still
draws only from its own stream, in its own order, so nothing about how
many supersteps a hop took may reach a path or a counter.  Held here
against the jit scalar kernel — a per-walker loop that retries in place —
at retry-heavy ``(p, q)``, beside the rules around a stall: the teleport
draw belongs to movers only, a step-dependent spec may not stall, a
kernel may not end a walker it stalled, and the safety valve fires.
"""

import functools
import time

import numpy as np
import pytest
from stall_helpers import RETRY_HEAVY, NeverAccepting

from repro.errors import SamplingError, WalkConfigError
from repro.graph import load_dataset
from repro.sampling.hybrid import make_walk_kernel
from repro.sampling.vectorized import (
    STALL,
    BatchSample,
    VectorizedKernel,
    seed_sequence_states,
)
from repro.walks import EngineStats, Node2VecSpec, make_queries
from repro.walks.base import paths_from_step_log, unpack_queries
from repro.walks.batch import BatchEngine, Frontier, run_walks_batch_arrays, superstep
from repro.walks.engine import STAT_FIELDS
from repro.walks.jit import jit_state_from_kernel, run_walks_jit_arrays

SEED = 23
NUM_QUERIES = 150
WALK_LENGTH = 10
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


@functools.lru_cache(maxsize=None)
def graph():
    return load_dataset("WG", scale=0.06, seed=1)


@functools.lru_cache(maxsize=None)
def queries():
    return tuple(make_queries(graph(), NUM_QUERIES, seed=3))


def batch_and_jit(spec, sampler="default"):
    """Dense ``(paths, hops, stats)`` of the batch engine and of the jit
    scalar kernel (interpreted where numba is absent) on one kernel."""
    kernel = make_walk_kernel(spec.make_sampler(), sampler)
    kernel.prepare(graph())
    ids, starts = unpack_queries(queries())
    runs = []
    for run in (run_walks_batch_arrays, run_walks_jit_arrays):
        stats = EngineStats()
        state = kernel if run is run_walks_batch_arrays else jit_state_from_kernel(
            graph(), spec, kernel)
        paths, hops = run(graph(), spec, state, starts, ids, seed=SEED, stats=stats)
        runs.append((paths, hops, stats))
    return runs


def assert_same_runs(a, b):
    (a_paths, a_hops, a_stats), (b_paths, b_hops, b_stats) = a, b
    assert np.array_equal(a_hops, b_hops)
    for row, hops in enumerate(a_hops.tolist()):
        assert np.array_equal(a_paths[row, :hops + 1], b_paths[row, :hops + 1]), row
    for name in STAT_FIELDS + ("total_hops", "per_query_hops"):
        assert getattr(a_stats, name) == getattr(b_stats, name), name


@pytest.mark.parametrize("sampler", ["default", "auto"])
@pytest.mark.parametrize("p,q", RETRY_HEAVY)
def test_retry_heavy_batch_equals_the_scalar_kernel(p, q, sampler):
    spec = Node2VecSpec(p=p, q=q, max_length=WALK_LENGTH)
    batch, jit = batch_and_jit(spec, sampler)
    assert_same_runs(batch, jit)
    # Retries happened: more proposals than hops.
    assert batch[2].sampling_proposals > batch[2].total_hops


class Teleporting(Node2VecSpec):
    """Node2Vec that also ends each hop with probability 0.2 — still
    step-invariant, so stalled and moving walkers share supersteps."""

    def termination_probability(self, step):
        return 0.2


@pytest.mark.parametrize("p,q", RETRY_HEAVY)
def test_only_movers_draw_the_teleport_uniform(p, q):
    """A walker that stalled must not draw its teleport uniform until
    its hop is taken — the scalar kernel draws it once, after the hop."""
    batch, jit = batch_and_jit(Teleporting(p=p, q=q, max_length=WALK_LENGTH))
    assert_same_runs(batch, jit)
    assert 0 < batch[2].probabilistic_terminations < NUM_QUERIES


def stalling_frontier(spec):
    """A superstep's inputs in which every walker stalls (second hops
    under a sampler that accepts nothing)."""
    kernel = make_walk_kernel(spec.make_sampler(), "default")
    kernel.prepare(graph())
    current = np.flatnonzero(graph().degrees() > 0)[:12]
    previous = graph().col[graph().row_ptr[current]]
    states = seed_sequence_states(SEED, np.arange(current.size))
    return kernel, Frontier(np.arange(current.size), current, previous, states)


def test_a_stall_under_a_step_dependent_spec_raises_before_any_further_draw():
    class StepDependent(NeverAccepting, Teleporting):
        step_invariant = False

    spec = StepDependent(max_length=WALK_LENGTH)
    kernel, frontier = stalling_frontier(spec)
    before = frontier.state.copy()
    counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
    with pytest.raises(WalkConfigError, match="not step-invariant"):
        superstep(graph(), spec, kernel, 3, frontier, counts)
    # The kernel's proposal and accept draws, and no teleport draw.
    expected = [(int(s) + 2 * _GAMMA) & _MASK for s in before.tolist()]
    assert frontier.state.tolist() == expected


def test_stalled_walkers_keep_their_place_and_extend_their_streaks():
    spec = NeverAccepting(max_length=WALK_LENGTH)
    kernel, frontier = stalling_frontier(spec)
    current, previous = frontier.current.copy(), frontier.previous.copy()
    counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
    for streak in (1, 2, 3):
        pos, next_vertex, stalled = superstep(graph(), spec, kernel, 0, frontier, counts)
        assert np.array_equal(stalled, np.arange(current.size))
        assert np.array_equal(pos, np.arange(current.size))
        assert np.array_equal(next_vertex, current)
        assert np.array_equal(frontier.current, current)
        assert np.array_equal(frontier.previous, previous)
        assert frontier.stalls.tolist() == [streak] * current.size
    assert counts[0] == 3 * current.size and not counts[2:].any()


def test_the_safety_valve_bounds_each_walkers_stalls():
    engine = BatchEngine(graph(), NeverAccepting(p=4.0, q=0.25, max_length=WALK_LENGTH))
    began = time.perf_counter()
    with pytest.raises(SamplingError, match=r"after 10000 rounds \(p=4\.0, q=0\.25\)"):
        engine.run(queries()[:4], seed=SEED)
    assert time.perf_counter() - began < 30.0


class StallsThenGivesUp(VectorizedKernel):
    """Stalls every walker once, then finds nothing admissible — which
    breaks the promise a stall makes."""

    def __init__(self):
        self.calls = 0

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        self.calls += 1
        vertex = np.full(current.size, STALL if self.calls == 1 else -1, dtype=np.int64)
        stalled = np.arange(current.size) if self.calls == 1 else np.empty(0, dtype=np.int64)
        return BatchSample(vertex, proposals=current.size, neighbor_reads=current.size,
                           stalled=stalled)


def test_a_kernel_may_not_end_a_walker_it_stalled():
    engine = BatchEngine(graph(), Node2VecSpec(max_length=5), kernel=StallsThenGivesUp())
    with pytest.raises(SamplingError, match="ended a walker it had stalled"):
        engine.run(queries()[:3], seed=SEED)


def test_step_log_skips_stalled_rows():
    """Row 0 stalls in superstep 1 and takes its second hop in 2; row 1
    ends after one hop; row 2 stalls twice before its only hop."""
    starts = np.array([10, 20, 30])
    hops = np.array([2, 1, 1])
    log = [
        (np.array([11, 21, 30]), np.array([2])),
        (np.array([11, 30]), np.array([0, 1])),
        np.array([12, 31]),
    ]
    flat, offsets = paths_from_step_log(starts, hops, log)
    paths = [flat[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]
    assert paths == [[10, 11, 12], [20, 21], [30, 31]]
    assert hops.tolist() == [2, 1, 1]


def test_a_walk_that_never_stalls_carries_no_streaks():
    spec = Node2VecSpec(p=1.0, q=1.0, max_length=WALK_LENGTH)  # accepts every proposal
    kernel, frontier = stalling_frontier(spec)
    _, _, stalled = superstep(graph(), spec, kernel, 0, frontier,
                              np.zeros(len(STAT_FIELDS), dtype=np.int64))
    assert stalled.size == 0 and frontier.stalls is None
