"""Pure-software reference walk engine.

Implements Algorithm II.1 of the paper directly: row access, sampling,
column access, termination check — one query at a time, whole walk in
one loop, each hop decided by the scalar sampler's one ``draw``, with
no hardware modelling.

Each query draws from its own :class:`~repro.sampling.vectorized.QueryStreams`
stream (:func:`~repro.sampling.vectorized.stream_states`, splitmix64), held in Python
ints by a :class:`~repro.sampling.vectorized.QueryStream`, and each
scalar sampler draws what its batch kernel draws, in the same order.  So
this loop and the batch engine's interleaved frontier walk
bit-identically — paths and every ``EngineStats`` counter — which is the
paper's claim that a Markov walk split into stateless tasks may run in
any order (§III-C), checked exactly by ``tests/walks/test_engine_matrix.py``.
The cycle model's tasks draw the same streams through the same samplers.

The engine is also the correctness oracle for downstream applications
(PPR estimation, DeepWalk corpora) in ``examples/``.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.vectorized import QueryStream, stream_states
from repro.walks.base import Query, WalkResults, WalkSpec, draw_termination, path_offsets
from repro.walks.engine import STAT_FIELDS, EngineStats, PreparedEngine, snapshot_graph

(_PROPOSALS, _READS, _DANGLING, _EARLY, _PROBABILISTIC, _LENGTH) = range(len(STAT_FIELDS))


class ReferenceEngine(PreparedEngine):
    """The scalar reference loop as an engine: its array hook walks one
    query at a time; the protocol's ``run`` checks the starts and folds
    the counters, as for every engine."""

    name = "reference"

    def __init__(self, graph, spec: WalkSpec) -> None:
        self._configure(graph, spec)

    def _run_arrays(self, query_ids, starts, seed):
        graph, spec = self._graph, self._spec
        sampler = spec.make_sampler()
        sampler.prepare(graph)
        counts = [0] * len(STAT_FIELDS)
        paths = []
        states = stream_states(seed, query_ids).tolist()
        second_order = spec.needs_prev_vertex
        for state, current in zip(states, starts.tolist()):
            stream = QueryStream(state)
            path = [current]
            previous = -1
            for hop in range(spec.max_length):
                degree = graph.degree(current)
                if degree == 0:
                    counts[_DANGLING] += 1
                    break
                index, proposals, reads = sampler.draw(
                    graph, current, degree, previous if second_order else -1,
                    spec.admissible_type(hop), stream)
                counts[_PROPOSALS] += proposals
                counts[_READS] += reads
                if index < 0:
                    counts[_EARLY] += 1
                    break
                previous, current = current, int(graph.neighbors(current)[index])
                path.append(current)
                if draw_termination(spec, hop, stream):
                    counts[_PROBABILISTIC] += 1
                    break
            else:
                counts[_LENGTH] += 1
            paths.append(path)
        offsets = path_offsets(np.array([len(path) for path in paths], dtype=np.int64))
        flat = np.fromiter(chain.from_iterable(paths), dtype=np.int64, count=int(offsets[-1]))
        return flat, offsets, np.array(counts, dtype=np.int64)

    def swap_snapshot(self, snapshot) -> None:
        # The scalar samplers re-prepare per run; only the graph swaps.
        self._graph = snapshot_graph(snapshot)


def run_walks(
    graph: CSRGraph,
    spec: WalkSpec,
    queries: Sequence[Query],
    seed: int = 0,
    stats: EngineStats | None = None,
) -> WalkResults:
    """Execute ``queries`` under ``spec`` and return their paths.

    Deterministic in ``seed``; each query gets an independent substream so
    results do not depend on query order.  Pass an :class:`EngineStats`
    to collect cost counters (used by the baseline performance models).
    """
    return ReferenceEngine(graph, spec).run(queries, seed=seed, stats=stats)
