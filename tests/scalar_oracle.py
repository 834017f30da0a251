"""Scalar walk oracle: one walker at a time, whole walk in one loop.

The batch engine advances a whole frontier per superstep; this runs each
walker's entire walk in plain Python and draws from the same stream in
the same order: the per-query uint64 state of ``SeedSequence((seed,
query_id))``, bumped by the splitmix64 golden-ratio gamma, finalised by
the splitmix64 mixer and mapped to [0, 1) through its top 53 bits — what
:class:`~repro.sampling.vectorized.QueryStreams` does for a frontier.
A rejected Node2Vec proposal retries in place here, where the batch
engine stalls the walker to its next superstep, so equal paths and
counters show that how many supersteps a hop took reaches neither.

The oracle reads a prepared batch kernel's alias slots, so both sides
sample the same tables, takes adjacency from the graph, and covers the
strategies the specs' own kernels run: uniform, alias, rejection and
reservoir.  :func:`run_walks_scalar_arrays` has the signature of
``run_walks_batch_arrays``, and :func:`assert_same_runs` compares the two.
"""

import math

import numpy as np

from repro.errors import SamplingError
from repro.sampling import SamplerState
from repro.sampling.rejection import _MAX_REJECTION_ROUNDS
from repro.sampling.vectorized import (
    AliasKernel,
    RejectionKernel,
    ReservoirKernel,
    UniformKernel,
    seed_sequence_states,
)
from repro.walks.base import path_offsets
from repro.walks.batch import dense_path_matrix
from repro.walks.engine import STAT_FIELDS, run_arrays

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_ELEMENT_GAMMA = 0xD1B54A32D192ED03
_TO_UNIT = 1.0 / (1 << 53)

#: Indices into the ``STAT_FIELDS`` counts: the two costs and a walk's end.
PROPOSALS, READS = STAT_FIELDS.index("sampling_proposals"), STAT_FIELDS.index("neighbor_reads")
DANGLING, EARLY, PROBABILISTIC, LENGTH = (
    STAT_FIELDS.index(f"{cause}_terminations")
    for cause in ("dangling", "early", "probabilistic", "length")
)


def _mix64(z):
    """splitmix64 finalizer over one uint64 held in a Python int."""
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


def _race_key(u, exponent):
    """``u ** exponent`` through numpy's shortcut exponents, so a race key
    matches the reservoir kernel's bit for bit under any libm."""
    if exponent == 2.0:
        return u * u
    if exponent == 0.5:
        return math.sqrt(u)
    if exponent == 1.0:
        return u
    if exponent == 0.0:
        return 1.0
    if exponent == -1.0:
        return 1.0 / u
    return u**exponent


class _Stream:
    """One walker's splitmix64 stream."""

    def __init__(self, state):
        self.state = int(state)

    def _bump(self):
        self.state = (self.state + _GAMMA) & _MASK
        return self.state

    def uniform(self):
        return (_mix64(self._bump()) >> 11) * _TO_UNIT

    def randint(self, bound):
        return min(int(self.uniform() * bound), bound - 1)

    def element_uniforms(self, count):
        """``count`` uniforms for one bump, counter-style."""
        advanced = self._bump()
        return [(_mix64(advanced ^ _mix64((i + _ELEMENT_GAMMA) & _MASK)) >> 11) * _TO_UNIT
                for i in range(count)]


class ScalarWalks:
    """Every walk of a batch, one walker at a time, on ``kernel``'s tables."""

    def __init__(self, graph, spec, kernel):
        self._spec = spec
        self._draw = {
            UniformKernel: self._uniform,
            AliasKernel: self._alias,
            RejectionKernel: self._rejection,
            ReservoirKernel: self._reservoir,
        }[type(kernel)]
        self._row_ptr = graph.row_ptr.tolist()
        self._col = graph.col.tolist()
        self._weights = None if graph.weights is None else graph.weights.tolist()
        self._edge_types = None if graph.edge_types is None else graph.edge_types.tolist()
        self._n = graph.num_vertices
        if isinstance(kernel, AliasKernel):
            slots = SamplerState.of(graph).alias_slots
            self._slots = (slots["prob"].tolist(), slots["col"].tolist(),
                           slots["alias_col"].tolist())
        # Adjacency from the graph itself, not the kernel's edge table.
        self._edges = set()
        if kernel.second_order:
            for src in range(self._n):
                row = self._col[self._row_ptr[src]:self._row_ptr[src + 1]]
                self._edges.update(src * self._n + dst for dst in row)
        sampler = spec.make_sampler()
        if isinstance(kernel, RejectionKernel):
            self._p, self._q = sampler.p, sampler.q
            self._return_accept = sampler.return_bias / sampler.max_bias
            self._adjacent_accept = 1.0 / sampler.max_bias
            self._explore_accept = sampler.explore_bias / sampler.max_bias
        elif isinstance(kernel, ReservoirKernel) and sampler.second_order:
            self._p_inv, self._q_inv = 1.0 / sampler.p, 1.0 / sampler.q
        self._second_order = kernel.second_order
        length = spec.max_length
        self._admissible = [spec.admissible_type(hop) for hop in range(length)]
        self._teleport = [float(spec.termination_probability(hop)) for hop in range(length)]

    def __call__(self, query_ids, starts, seed):
        """The engines' array hook: ``(flat, offsets, counts)``."""
        self._counts = np.zeros(len(STAT_FIELDS), dtype=np.int64)
        paths = [
            self._walk(start, state)
            for start, state in zip(starts.tolist(), seed_sequence_states(seed, query_ids))
        ]
        offsets = path_offsets(np.array([len(path) for path in paths], dtype=np.int64))
        flat = np.array([v for path in paths for v in path], dtype=np.int64)
        return flat, offsets, self._counts

    def _walk(self, start, state):
        stream = _Stream(state)
        path, vertex, previous = [start], start, -1
        cause = LENGTH
        for hop in range(self._spec.max_length):
            lo = self._row_ptr[vertex]
            degree = self._row_ptr[vertex + 1] - lo
            if degree == 0:
                cause = DANGLING
                break
            prev = previous if self._spec.needs_prev_vertex else -1
            following = self._draw(stream, lo, degree, prev, hop)
            if following < 0:
                cause = EARLY
                break
            path.append(following)
            previous, vertex = vertex, following
            teleport = self._teleport[hop]
            if teleport > 0.0 and stream.uniform() < teleport:
                cause = PROBABILISTIC
                break
        self._counts[cause] += 1
        return path

    def _uniform(self, stream, lo, degree, prev, hop):
        self._counts[PROPOSALS] += 1
        self._counts[READS] += 1
        return self._col[lo + stream.randint(degree)]

    def _alias(self, stream, lo, degree, prev, hop):
        u1, u2 = stream.uniform(), stream.uniform()
        slot = lo + min(int(u1 * degree), degree - 1)
        prob, col, alias_col = self._slots
        self._counts[PROPOSALS] += 1
        self._counts[READS] += 2
        return col[slot] if u2 < prob[slot] else alias_col[slot]

    def _rejection(self, stream, lo, degree, prev, hop):
        if prev < 0:  # a first hop is degenerate-uniform, accepted outright
            return self._uniform(stream, lo, degree, prev, hop)
        probe_lo = min(self._adjacent_accept, self._explore_accept)
        probe_hi = max(self._adjacent_accept, self._explore_accept)
        prev_degree = self._row_ptr[prev + 1] - self._row_ptr[prev]
        for _ in range(_MAX_REJECTION_ROUNDS):
            candidate = self._col[lo + stream.randint(degree)]
            u = stream.uniform()
            self._counts[PROPOSALS] += 1
            self._counts[READS] += 1
            if candidate == prev:
                threshold = self._return_accept
            else:
                self._counts[READS] += prev_degree
                threshold = self._explore_accept
                if probe_lo <= u < probe_hi and prev * self._n + candidate in self._edges:
                    threshold = self._adjacent_accept
            if u < threshold:
                return candidate
        raise SamplingError(
            f"rejection sampling failed to accept after {_MAX_REJECTION_ROUNDS} "
            f"rounds (p={self._p}, q={self._q})"
        )

    def _reservoir(self, stream, lo, degree, prev, hop):
        admissible = self._admissible[hop]
        if admissible is not None and self._edge_types is None:
            raise SamplingError("admissible_type given but the graph has no edge types")
        self._counts[PROPOSALS] += 1
        self._counts[READS] += degree
        best_key, best = -1.0, -1
        for i, u in enumerate(stream.element_uniforms(degree)):
            pos = lo + i
            weight = 1.0 if self._weights is None else self._weights[pos]
            if self._second_order and prev >= 0:
                candidate = self._col[pos]
                if candidate == prev:
                    weight *= self._p_inv
                elif prev * self._n + candidate not in self._edges:
                    weight *= self._q_inv
            key = -1.0
            if weight > 0 and (admissible is None or self._edge_types[pos] == admissible):
                key = _race_key(u if u != 0.0 else 5e-324, 1.0 / weight)
            if key >= best_key:  # ties go to the later entry, as in the kernel
                best_key, best = key, i
        return self._col[lo + best] if best_key > -0.5 else -1


def run_walks_scalar_arrays(graph, spec, kernel, start_vertices, query_ids, seed=0, stats=None):
    """Dense ``(paths, hops)`` of the scalar oracle, accumulating every
    ``EngineStats`` counter — ``run_walks_batch_arrays``'s contract, on
    the prepared ``kernel``'s tables."""
    hook = ScalarWalks(graph, spec, kernel)
    starts = np.array(start_vertices, dtype=np.int64)
    return dense_path_matrix(*run_arrays(graph, hook, query_ids, starts, seed, stats))


def assert_same_runs(a, b):
    """Two ``(paths, hops, stats)`` runs agree walk by walk and on every counter."""
    (a_paths, a_hops, a_stats), (b_paths, b_hops, b_stats) = a, b
    assert np.array_equal(a_hops, b_hops)
    for row, hops in enumerate(a_hops.tolist()):
        assert np.array_equal(a_paths[row, :hops + 1], b_paths[row, :hops + 1]), row
    for name in STAT_FIELDS + ("total_hops", "per_query_hops"):
        assert getattr(a_stats, name) == getattr(b_stats, name), name
