"""What a superstep asks of a kernel, and what the kernel owes it back.

The superstep reads each walker's out-degree once and hands it to
``kernel.sample`` as ``degrees``; a kernel names the walks it ended in
``BatchSample.ended`` beside the walkers it stalled in
``BatchSample.stalled``, so the superstep never scans ``vertex``.  All of
it travels through ``sample``'s arguments and its ``BatchSample``: a
proxy that forwards ``sample`` and nothing else (the benchmark's timing
proxy is one) still walks every spec bit-identically.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench.workloads import make_spec
from repro.cli import ALGORITHMS
from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.sampling.vectorized import STALL, BatchSample, QueryStreams, stream_states
from repro.walks import EngineStats, Node2VecSpec
from repro.walks import batch as batch_module
from repro.walks.batch import BatchEngine, Frontier, superstep
from repro.walks.engine import STAT_FIELDS, prepared_kernel

from stall_helpers import NeverAccepting
from test_compact_core import golden_graph, golden_queries

SEED = 11
LENGTH = 12


@pytest.fixture(scope="module")
def graph():
    return golden_graph()


@pytest.fixture(scope="module")
def queries(graph):
    return golden_queries(graph)


def spec_of(algorithm):
    spec = make_spec(algorithm)
    spec.max_length = LENGTH
    return spec


class SampleOnly:
    """A kernel behind a proxy that forwards ``sample`` and nothing else."""

    def __init__(self, kernel):
        self._kernel = kernel

    def sample(self, *args, **kwargs):
        return self._kernel.sample(*args, **kwargs)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_superstep_reads_the_degrees_once(monkeypatch, graph, queries, algorithm):
    """Uniform, alias, rejection and reservoir kernels (MetaPath's
    included): one ``graph.degrees()`` call per superstep, however the
    superstep goes (dangling walkers, stalls, ended walks, teleports)."""
    spec = spec_of(algorithm)
    _, kernel = prepared_kernel(spec, graph)
    frontier = Frontier.start(np.arange(len(queries)), queries.starts,
                              stream_states(SEED, queries.ids))
    counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
    calls = []
    degrees = CSRGraph.degrees

    def counted(self):
        calls.append(self)
        return degrees(self)

    monkeypatch.setattr(CSRGraph, "degrees", counted)
    supersteps = 0
    while frontier.size:
        superstep(graph, spec, kernel, frontier, counts)
        supersteps += 1
        assert len(calls) == supersteps
    assert supersteps > 1 and all(called is graph for called in calls)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_ended_lists_exactly_the_walks_a_kernel_ends(graph, algorithm):
    """``ended`` is every ``-1`` of ``vertex``, ascending; ``stalled``
    every :data:`STALL`; the two never share a walker."""
    spec = spec_of(algorithm)
    _, kernel = prepared_kernel(spec, graph)
    rng = np.random.default_rng(3)
    live = np.flatnonzero(graph.degrees() > 0)
    ended_total = 0
    for round_ in range(20):
        current = rng.choice(live, size=300)
        # First hops and later hops mixed, previous vertices real edges.
        previous = np.where(rng.random(current.size) < 0.3, -1,
                            graph.col[graph.row_ptr[current]])
        hops = rng.integers(0, LENGTH, current.size)
        batch = kernel.sample(graph, current, previous, spec.admissible_type(hops),
                              QueryStreams(round_, np.arange(current.size)), None,
                              graph.degrees()[current])
        for listed, value in ((batch.ended, -1), (batch.stalled, STALL)):
            assert np.array_equal(listed, np.flatnonzero(batch.vertex == value))
            assert (np.diff(listed) > 0).all()
        assert np.intersect1d(batch.ended, batch.stalled).size == 0
        ended_total += batch.ended.size
    if algorithm == "MetaPath":
        # A walker whose row has no edge of its type ends: not vacuous.
        assert ended_total > 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_sample_only_proxy_walks_every_spec_alike(graph, queries, algorithm):
    spec = spec_of(algorithm)
    _, kernel = prepared_kernel(spec, graph)
    runs = []
    for engine in (BatchEngine(graph, spec), BatchEngine(graph, spec, kernel=SampleOnly(kernel))):
        stats = EngineStats()
        runs.append((engine.run(queries, seed=SEED, stats=stats), stats))
    (plain, plain_stats), (proxied, proxied_stats) = runs
    assert len(plain.paths) == len(proxied.paths)
    assert all(np.array_equal(a, b) for a, b in zip(plain.paths, proxied.paths))
    assert dataclasses.asdict(plain_stats) == dataclasses.asdict(proxied_stats)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_sample_only_proxy_serves_an_open_frontier_alike(graph, queries, algorithm):
    """The same through the open frontier the walk service steps."""
    spec = spec_of(algorithm)
    _, kernel = prepared_kernel(spec, graph)
    paths = []
    for engine in (BatchEngine(graph, spec), BatchEngine(graph, spec, kernel=SampleOnly(kernel))):
        frontier = engine.open_frontier(SEED, 16)
        ids, starts = queries.ids[:64], queries.starts[:64]
        seated, walks = 0, {}
        slot_of = {}
        while seated < ids.size or frontier.live:
            take = min(frontier.free, ids.size - seated)
            for slot, k in zip(frontier.admit(ids[seated:seated + take],
                                              starts[seated:seated + take]).tolist(),
                               range(seated, seated + take)):
                slot_of[slot] = k
            seated += take
            for slot in frontier.step().tolist():
                walks[slot_of.pop(slot)] = frontier.take(slot)
        paths.append(([walks[k] for k in range(ids.size)], frontier.counts.copy()))
    (plain, plain_counts), (proxied, proxied_counts) = paths
    assert all(np.array_equal(a, b) for a, b in zip(plain, proxied))
    assert np.array_equal(plain_counts, proxied_counts)


def test_a_sample_only_proxy_stalls_out_with_a_sampling_error(graph, queries):
    """A walker stalled past the bound behind a proxy that forwards only
    ``sample`` fails its run as the bare kernel does: a
    :class:`SamplingError` naming p and q."""
    spec = NeverAccepting(p=4.0, q=0.25, max_length=LENGTH)
    _, kernel = prepared_kernel(spec, graph)
    for engine in (BatchEngine(graph, spec), BatchEngine(graph, spec, kernel=SampleOnly(kernel))):
        with pytest.raises(SamplingError, match=r"after 10000 rounds \(p=4\.0, q=0\.25\)"):
            engine.run(queries[:4], seed=SEED)


class AlwaysStalls:
    """A ``sample``-only kernel that leaves every walker it is asked
    about undecided, counting its calls."""

    def __init__(self):
        self.calls = 0

    def sample(self, graph, current, *args):
        self.calls += 1
        return BatchSample(np.full(current.size, STALL, dtype=np.int64), proposals=current.size,
                           neighbor_reads=0, stalled=np.arange(current.size))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_stall_out_raises_the_specs_error_at_the_bound(monkeypatch, graph, queries,
                                                         algorithm):
    """Under every spec a walker stalled for the bound's supersteps
    fails the run with the spec's own :class:`SamplingError`, raised on
    the superstep that reaches the bound, from a kernel that offers
    nothing but ``sample``."""
    monkeypatch.setattr(batch_module, "MAX_STALLS", 5)
    spec = spec_of(algorithm)
    kernel = AlwaysStalls()
    with pytest.raises(SamplingError) as raised:
        BatchEngine(graph, spec, kernel=kernel).run(queries[:4], seed=SEED)
    if isinstance(spec, Node2VecSpec):
        expected = (f"{spec.strategy} sampling failed to accept after 5 rounds "
                    f"(p={spec.p}, q={spec.q})")
    else:
        expected = f"{spec.name} left a walker undecided for 5 supersteps"
    assert str(raised.value) == expected
    assert kernel.calls == 5
