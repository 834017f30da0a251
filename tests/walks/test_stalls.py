"""Stalls: a rejected proposal retries in the next superstep.

``RejectionKernel`` runs one proposal round per call and reports the
walkers it left undecided; :func:`~repro.walks.batch.superstep` keeps
them where they are, so the superstep is the retry loop.  A walker still
draws only from its own stream, in its own order, so nothing about how
many supersteps a hop took may reach a path or a counter.  Held here
against the reference engine — a per-walker loop whose scalar sampler
retries in place — at retry-heavy ``(p, q)``, beside the rules around a
stall: the teleport draw belongs to movers only, a hook that reads the
hop reads the walker's own count, a kernel may not end a walker it
stalled, and the safety valve fires.
"""

import functools
import time

import numpy as np
import pytest
from stall_helpers import RETRY_HEAVY, HopTeleport, NeverAccepting
from stat_helpers import assert_reference_equals_batch

from repro.errors import SamplingError
from repro.graph import load_dataset
from repro.sampling.vectorized import (
    STALL,
    BatchSample,
    VectorizedKernel,
    make_kernel,
    seed_sequence_states,
)
from repro.walks import Node2VecSpec, make_queries
from repro.walks.base import paths_from_step_log, start_path_buffer
from repro.walks.batch import BatchEngine, Frontier, superstep
from repro.walks.engine import STAT_FIELDS
from repro.walks.reference import ReferenceEngine

SEED = 23
NUM_QUERIES = 150
WALK_LENGTH = 10


@functools.lru_cache(maxsize=None)
def graph():
    return load_dataset("WG", scale=0.06, seed=1)


@functools.lru_cache(maxsize=None)
def queries():
    return tuple(make_queries(graph(), NUM_QUERIES, seed=3))


def batch_equals_reference(spec):
    """The batch run's ``EngineStats``, once it equals the reference
    engine's walk by walk and counter by counter."""
    return assert_reference_equals_batch(graph(), spec, queries(), SEED)


@pytest.mark.parametrize("p,q", RETRY_HEAVY)
def test_retry_heavy_batch_equals_the_reference_engine(p, q):
    stats = batch_equals_reference(Node2VecSpec(p=p, q=q, max_length=WALK_LENGTH))
    # Retries happened: more proposals than hops.
    assert stats.sampling_proposals > stats.total_hops


class Teleporting(Node2VecSpec):
    """Node2Vec that also ends each hop with probability 0.2 — still
    step-invariant, so stalled and moving walkers share supersteps."""

    def termination_probability(self, step):
        return 0.2


@pytest.mark.parametrize("p,q", RETRY_HEAVY)
def test_only_movers_draw_the_teleport_uniform(p, q):
    """A walker that stalled must not draw its teleport uniform until
    its hop is taken — the reference engine draws it once, after the hop."""
    stats = batch_equals_reference(Teleporting(p=p, q=q, max_length=WALK_LENGTH))
    assert 0 < stats.probabilistic_terminations < NUM_QUERIES


def stalling_frontier(spec):
    """A superstep's inputs in which every walker stalls (second hops
    under a sampler that accepts nothing)."""
    kernel = make_kernel(spec.make_sampler())
    kernel.prepare(graph())
    current = np.flatnonzero(graph().degrees() > 0)[:12]
    previous = graph().col[graph().row_ptr[current]]
    states = seed_sequence_states(SEED, np.arange(current.size))
    return kernel, Frontier(np.arange(current.size), current, previous, states)


class HopTeleporting(HopTeleport, Node2VecSpec):
    """Node2Vec whose teleport reads the walker's own hop count."""


@pytest.mark.parametrize("p,q", RETRY_HEAVY)
def test_a_stall_under_a_step_dependent_spec_keeps_the_walkers_own_hop(p, q):
    """A stalled walker has taken fewer hops than supersteps have run, so
    a hook asked with the superstep count would teleport it on the wrong
    hop.  The reference engine asks with the walker's own hop; the batch
    engine must agree with it."""
    stats = batch_equals_reference(HopTeleporting(p=p, q=q, max_length=WALK_LENGTH))
    assert stats.sampling_proposals > stats.total_hops
    # Walks teleport only after hop 2, 5 or 8: 3, 6 or 9 hops.
    teleported = stats.probabilistic_terminations
    assert 0 < teleported < NUM_QUERIES
    assert np.count_nonzero(np.isin(stats.per_query_hops, (3, 6, 9))) >= teleported


def test_stalled_walkers_keep_their_place_and_extend_their_streaks():
    spec = NeverAccepting(max_length=WALK_LENGTH)
    kernel, frontier = stalling_frontier(spec)
    current, previous = frontier.current.copy(), frontier.previous.copy()
    counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
    for streak in (1, 2, 3):
        pos, _, next_vertex, stalled = superstep(graph(), spec, kernel, frontier, counts)
        assert np.array_equal(stalled, np.arange(current.size))
        assert np.array_equal(pos, np.arange(current.size))
        assert np.array_equal(next_vertex, current)
        assert np.array_equal(frontier.current, current)
        assert np.array_equal(frontier.previous, previous)
        assert frontier.stalls.tolist() == [streak] * current.size
    assert counts[0] == 3 * current.size and not counts[2:].any()


@pytest.mark.parametrize("make_engine", [BatchEngine, ReferenceEngine],
                         ids=["batch", "reference"])
def test_the_safety_valve_bounds_each_walkers_stalls(make_engine):
    """Stalls in the batch superstep, retries in the scalar sampler's
    loop: either way the walk fails at the same bound, in one message."""
    engine = make_engine(graph(), NeverAccepting(p=4.0, q=0.25, max_length=WALK_LENGTH))
    began = time.perf_counter()
    with pytest.raises(SamplingError, match=r"after 10000 rounds \(p=4\.0, q=0\.25\)"):
        engine.run(queries()[:4], seed=SEED)
    assert time.perf_counter() - began < 30.0


class StallsThenGivesUp(VectorizedKernel):
    """Stalls every walker once, then finds nothing admissible — which
    breaks the promise a stall makes."""

    def __init__(self):
        self.calls = 0

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx, degrees):
        self.calls += 1
        vertex = np.full(current.size, STALL if self.calls == 1 else -1, dtype=np.int64)
        everyone, nobody = np.arange(current.size), np.empty(0, dtype=np.int64)
        if self.calls == 1:
            return BatchSample(vertex, proposals=current.size, neighbor_reads=current.size,
                               stalled=everyone)
        return BatchSample(vertex, proposals=current.size, neighbor_reads=current.size,
                           ended=everyone)


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
    flat, offsets = start_path_buffer(starts, hops)
    paths_from_step_log(flat, hops, log)
    paths = [flat[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]
    assert paths == [[10, 11, 12], [20, 21], [30, 31]]
    assert hops.tolist() == [2, 1, 1]


def test_a_walk_that_never_stalls_carries_no_streaks():
    spec = Node2VecSpec(p=1.0, q=1.0, max_length=WALK_LENGTH)  # accepts every proposal
    kernel, frontier = stalling_frontier(spec)
    _, _, _, stalled = superstep(graph(), spec, kernel, frontier,
                                 np.zeros(len(STAT_FIELDS), dtype=np.int64))
    assert stalled.size == 0 and frontier.stalls is None
