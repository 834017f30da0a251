"""NumPy-vectorized sampling kernels for the batch walk engine.

The reference engine samples one hop of one walker at a time; these
kernels sample one hop of an *entire frontier* of walkers in a handful of
array operations — the software analogue of RidgeWalker's pipelined
Sampling module, and the step-centric batching that ThunderRW showed is
the key to software GRW throughput.

Three ingredients make the kernels drop-in replacements for the scalar
samplers in this package:

* :class:`QueryStreams` — one independent random substream per query,
  keyed by ``np.random.SeedSequence((seed, query_id))`` exactly like the
  reference engine, but advanced for the whole frontier with vectorized
  splitmix64 arithmetic.
* :class:`EdgeSet` — the one exact edge-membership structure every
  second-order kernel probes: sorted edge keys (``src * |V| + dst``)
  behind a 16-bits-per-edge bit filter, so a batch of Node2Vec adjacency
  probes is one hash + one cached bit read each, and a batched
  ``np.searchsorted`` of sorted needles over only the pairs the filter
  could not rule out.
* the same cost-counter contract as the scalar samplers: proposals and
  neighbor reads are accounted identically.  ``neighbor_reads`` is a
  *modeled* cost (the rejection kernel charges the scalar sampler's
  ``O(deg(prev))`` scan per non-return proposal), part of the
  cross-engine ``EngineStats`` identity — not a measure of the lookup
  work the filter saves.

Statistical equivalence with the scalar samplers is enforced by
chi-square tests in ``tests/walks/test_batch.py``; streams are *not*
bit-identical across engines, only identically distributed and
identically keyed per query.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import GraphError, SamplingError
from repro.graph.alias import build_alias_table
from repro.graph.csr import CSRGraph
from repro.graph.rows import segment_last_argmax
from repro.obs.trace import active as _active_tracer
from repro.sampling.alias_sampler import AliasSampler
from repro.sampling.base import Sampler, normalize_seed
from repro.sampling.its import InverseTransformSampler, build_its_cdf, build_its_row_totals
from repro.sampling.rejection import _MAX_REJECTION_ROUNDS, RejectionSampler
from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.uniform import UniformSampler

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_ELEMENT_GAMMA = np.uint64(0xD1B54A32D192ED03)
_TO_UNIT = 1.0 / (1 << 53)

#: Sizing rule of the edge filter (see :func:`build_edge_filter`).
_FILTER_BITS_PER_EDGE = 16
_FILTER_MIN_BITS = 6

#: ``BatchSample.vertex`` of a walker the kernel left undecided.
STALL = -2

#: A walker left undecided this many supersteps running fails its run:
#: rejection sampling's safety valve (as many proposals for one hop as
#: the scalar sampler allows), counted per walker by the superstep.
MAX_STALLS = _MAX_REJECTION_ROUNDS

#: ``BatchSample.stalled`` of a decision that left no walker undecided.
NO_STALLS = np.empty(0, dtype=np.intp)
NO_STALLS.setflags(write=False)

# numpy SeedSequence hashing constants (numpy/random/bit_generator.pyx).
# The batched derivation below reproduces SeedSequence bit-for-bit so the
# per-query substream keying stays identical to the reference engine's
# while costing a handful of array ops instead of one SeedSequence object
# per query.
_SS_POOL_SIZE = 4
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = np.uint32(0xCA01F9DD)
_SS_MIX_R = np.uint32(0x4973F715)
_SS_XSHIFT = np.uint32(16)
_SS_WORD_MASK = 0xFFFFFFFF

#: Up to this many ids, :func:`seed_sequence_states` seeds one numpy
#: ``SeedSequence`` per id: the array pipeline is ~40 tiny passes, ~105 us
#: a call however few ids it carries, against ~9 us an id, narrow or
#: wide.  The two cross at 11-12 ids on the reference host; the cut is 8
#: because from 9 ids up they are within a quarter of each other and the
#: winner moves with host load, while at 8 the scalar route is still
#: 30 us ahead.
_SS_SCALAR_MAX_IDS = 8


def _ss_hash(value: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash round over a uint32 array; advances the
    (position-dependent, data-independent) hash constant."""
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * _SS_MULT_A) & _SS_WORD_MASK
    value = value * np.uint32(hash_const)
    return value ^ (value >> _SS_XSHIFT), hash_const


def _ss_mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _SS_MIX_L - y * _SS_MIX_R
    return result ^ (result >> _SS_XSHIFT)


def _int_to_words(value: int) -> list[int]:
    """SeedSequence's little-endian 32-bit word coercion of one int."""
    if value == 0:
        return [0]
    words = []
    while value:
        words.append(value & _SS_WORD_MASK)
        value >>= 32
    return words


def _ss_states_for_words(seed_words: list[int], qid_words: list[np.ndarray]) -> np.ndarray:
    """States for one group of queries whose ids coerce to the same number
    of 32-bit words (so every query sees the same entropy layout)."""
    n = qid_words[0].size
    entropy = [np.full(n, word, dtype=np.uint32) for word in seed_words] + qid_words
    if len(entropy) > _SS_POOL_SIZE:  # pragma: no cover - ids are < 2**64
        raise SamplingError("seed/query-id entropy exceeds the SeedSequence pool")
    hash_const = _SS_INIT_A
    pool: list[np.ndarray] = []
    for i in range(_SS_POOL_SIZE):
        word = entropy[i] if i < len(entropy) else np.zeros(n, dtype=np.uint32)
        hashed, hash_const = _ss_hash(word, hash_const)
        pool.append(hashed)
    for src in range(_SS_POOL_SIZE):
        for dst in range(_SS_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _ss_hash(pool[src], hash_const)
                pool[dst] = _ss_mix(pool[dst], hashed)
    hash_const = _SS_INIT_B
    words: list[np.ndarray] = []
    for i in range(2):
        value = pool[i] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _SS_WORD_MASK
        value = value * np.uint32(hash_const)
        words.append(value ^ (value >> _SS_XSHIFT))
    return words[0].astype(np.uint64) | (words[1].astype(np.uint64) << np.uint64(32))


def seed_sequence_states(seed: int, query_ids: Sequence[int] | np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, qid)).generate_state(1, uint64)[0]`` for every
    query id, bit-exactly, in a handful of vectorized passes.

    Seeding one ``SeedSequence`` object per query is the remaining
    O(num_queries) scalar cost in batch-engine setup; this reproduces the
    exact hash pipeline (entropy coercion, pool mixing, state generation)
    with uint32 array arithmetic.  Queries are grouped by how many 32-bit
    words their id coerces to, since the entropy layout — and therefore
    the sequence of hash constants — depends only on that count.
    A handful of ids (:data:`_SS_SCALAR_MAX_IDS`; an open frontier admits
    a few walkers a turn) go through numpy's own ``SeedSequence`` instead,
    which is cheaper than the array passes' fixed cost.  Equality of the
    two routes is enforced by tests.
    """
    # Mask to valid SeedSequence entropy first: a negative int would make
    # _int_to_words loop forever (Python's >> keeps negatives negative),
    # and the engines' contract is "any int seed works".
    seed = normalize_seed(seed)
    ids = np.asarray(query_ids)
    if ids.dtype.kind == "i" and ids.size and ids.min() < 0:
        raise SamplingError("query ids must be non-negative")
    ids = ids.astype(np.uint64)
    if ids.ndim != 1:
        ids = ids.reshape(-1)
    states = np.empty(ids.size, dtype=np.uint64)
    if ids.size <= _SS_SCALAR_MAX_IDS:
        for k, query_id in enumerate(ids.tolist()):
            states[k] = np.random.SeedSequence((seed, query_id)).generate_state(1, np.uint64)[0]
        return states
    seed_words = _int_to_words(int(seed))
    wide = ids >= np.uint64(1 << 32)
    narrow = np.nonzero(~wide)[0]
    if narrow.size:
        states[narrow] = _ss_states_for_words(
            seed_words, [ids[narrow].astype(np.uint32)]
        )
    wide_idx = np.nonzero(wide)[0]
    if wide_idx.size:
        lo = (ids[wide_idx] & np.uint64(_SS_WORD_MASK)).astype(np.uint32)
        hi = (ids[wide_idx] >> np.uint64(32)).astype(np.uint32)
        states[wide_idx] = _ss_states_for_words(seed_words, [lo, hi])
    return states


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _to_unit(bits: np.ndarray) -> np.ndarray:
    """Map uint64 outputs to float64 uniforms in [0, 1) (53 usable bits)."""
    return (bits >> np.uint64(11)).astype(np.float64) * _TO_UNIT


class QueryStreams:
    """Per-query random substreams advanced in batch.

    Stream ``q`` is seeded from ``SeedSequence((seed, query_id))`` — the
    same derivation the reference engine uses — and advanced with
    splitmix64, so every query's randomness is independent of batch
    composition and query order, and two distinct ``(seed, query_id)``
    pairs never collide (the property the old xor-mix derivation lacked).
    """

    def __init__(self, seed: int, query_ids: Sequence[int] | np.ndarray) -> None:
        seed = normalize_seed(seed)
        # Batched bit-exact SeedSequence derivation — same states as
        # seeding one SeedSequence per query, minus the per-query Python
        # object cost (see seed_sequence_states).
        self._state = seed_sequence_states(seed, query_ids)

    @classmethod
    def from_states(cls, states: np.ndarray) -> "QueryStreams":
        """Resume streams from raw splitmix64 states, by reference.

        The distributed engine ships an in-flight walker between shards
        as ``(query_id, step, vertex, rng state)``; the receiving shard
        wraps the carried state array — zero-copy, so every draw
        advances the caller's array in place — and the walk continues
        bit-identically to one that never crossed a shard boundary.
        ``states`` must be the uint64 array a :class:`QueryStreams`
        seeded from ``SeedSequence((seed, query_id))`` would hold (see
        :func:`seed_sequence_states`); arbitrary integers would step
        outside the per-query substream contract.
        """
        states = np.asarray(states)
        if states.dtype != np.uint64 or states.ndim != 1:
            raise SamplingError(
                f"stream states must be a 1-D uint64 array, got "
                f"{states.dtype} with shape {states.shape}"
            )
        streams = cls.__new__(cls)
        streams._state = states
        return streams

    def states(self) -> np.ndarray:
        """The live per-stream state array (mutates as draws are made)."""
        return self._state

    @property
    def num_streams(self) -> int:
        return self._state.size

    def _advance(self, idx: np.ndarray | None) -> np.ndarray:
        """Bump the selected streams once and return their new states.

        ``idx=None`` is the identity selection — stream ``k`` belongs to
        walker ``k``, the compact-frontier engines' layout — and advances
        the whole state array in place, with no gather/scatter.
        """
        if idx is None:
            self._state += _GAMMA
            return self._state
        advanced = self._state[idx] + _GAMMA
        self._state[idx] = advanced
        return advanced

    def uniforms(self, idx: np.ndarray | None = None) -> np.ndarray:
        """One fresh uniform in [0, 1) from each selected stream."""
        return _to_unit(_mix64(self._advance(idx)))

    def randints(self, bounds: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        """One integer in ``[0, bounds[k])`` from each selected stream."""
        bounds = np.asarray(bounds, dtype=np.int64)
        draw = (self.uniforms(idx) * bounds).astype(np.int64)
        return np.minimum(draw, bounds - 1)

    def element_uniforms(
        self,
        idx: np.ndarray | None,
        counts: np.ndarray,
        segment: np.ndarray | None = None,
        within: np.ndarray | None = None,
    ) -> np.ndarray:
        """``counts[k]`` uniforms from stream ``idx[k]``, flattened.

        Each selected stream's state advances once; the per-element values
        are derived counter-style from the advanced state, so a scan over
        a large neighbor list costs one state bump regardless of degree.
        Callers that already flattened ``counts`` into ``segment`` (the
        selected-stream position of each element) and ``within`` (the
        element's index inside its segment) can pass both to skip the
        redundant repeat/cumsum pass — they must describe exactly the
        ``counts`` layout.
        """
        counts = np.asarray(counts, dtype=np.int64)
        advanced = self._advance(idx)
        if segment is None or within is None:
            total = int(counts.sum())
            segment = np.repeat(np.arange(counts.size), counts)
            starts = np.cumsum(counts) - counts
            within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        salt = _mix64(within.astype(np.uint64) + _ELEMENT_GAMMA)
        return _to_unit(_mix64(advanced[segment] ^ salt))


def sub_streams(stream_idx: np.ndarray | None, group: np.ndarray) -> np.ndarray:
    """Stream indices of the walkers at frontier positions ``group``
    (``stream_idx=None``: walker ``k`` reads stream ``k``)."""
    return group if stream_idx is None else stream_idx[group]


def build_edge_keys(graph: CSRGraph) -> np.ndarray:
    """Sorted ``src * |V| + dst`` keys for batched edge-existence probes."""
    n = np.int64(graph.num_vertices)
    sources = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    keys = sources * n + graph.col
    if not graph.cols_sorted:
        keys = np.sort(keys)
    return keys


def build_edge_filter(edge_keys: np.ndarray) -> np.ndarray:
    """Bit filter over ``edge_keys``: bit ``fib_hash(key)`` set for every key.

    The size is a fixed rule, not an option: the smallest power of two
    holding at least :data:`_FILTER_BITS_PER_EDGE` bits per edge (fill
    at most 1/16, so at most that share of absent keys survives to the
    sorted-key probe).  Built with array passes only: the hashes are
    sorted, which makes each quarter of the bit array a contiguous run
    that is scattered into one reused unpacked block and packed — no
    transient is larger than ``edge_keys`` itself.
    """
    bits = max((_FILTER_BITS_PER_EDGE * edge_keys.size - 1).bit_length(), _FILTER_MIN_BITS)
    hashes = edge_keys.view(np.uint64) * _GAMMA
    hashes >>= np.uint64(64 - bits)
    hashes = hashes.astype(np.uint32 if bits <= 32 else np.uint64)
    hashes.sort()
    block_bits = 1 << (bits - 2)
    bounds = np.arange(4, dtype=hashes.dtype) * hashes.dtype.type(block_bits)
    runs = np.split(hashes, np.searchsorted(hashes, bounds[1:]))
    unpacked = np.empty(block_bits, dtype=bool)
    packed = np.empty(4 * (block_bits >> 3), dtype=np.uint8)
    for low, run, out in zip(bounds, runs, np.split(packed, 4)):
        unpacked[:] = False
        unpacked[np.subtract(run, low, dtype=np.int64)] = True
        out[:] = np.packbits(unpacked, bitorder="little")
    return packed


class EdgeSet:
    """The one exact edge-membership structure behind every adjacency probe.

    Sorted ``src * |V| + dst`` keys answer ``has_edge`` exactly but cost a
    ``log2(|E|)``-step dependent-read binary search over a multi-megabyte
    array, and on Node2Vec most probes ask about a pair that is *not* an
    edge.  A power-of-two bit array in front of the keys — one Fibonacci
    hash of every key, >= 16 bits per edge — answers most of those from
    one cached read; only the survivors (every real edge plus the
    filter's few false passes) reach ``searchsorted``, sorted first, so
    consecutive binary searches walk neighbouring paths through the keys
    instead of each starting cold.  Membership stays exact, so callers'
    decisions are those of a plain sorted-key probe.
    """

    def __init__(self, keys: np.ndarray, bit_filter: np.ndarray, num_vertices: int) -> None:
        self.keys = keys
        self.filter = bit_filter
        self.num_vertices = int(num_vertices)
        self._stride = np.int64(num_vertices)
        # ``filter.size`` bytes hold ``2**bits`` bits.
        self._shift = np.uint64(64 - (bit_filter.size.bit_length() + 2))

    @classmethod
    def from_keys(cls, keys: np.ndarray, num_vertices: int) -> "EdgeSet":
        """Put a filter in front of already-built sorted keys."""
        return cls(keys, build_edge_filter(keys), num_vertices)

    @classmethod
    def build(cls, graph: CSRGraph) -> "EdgeSet":
        return cls.from_keys(build_edge_keys(graph), graph.num_vertices)

    def contains(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized ``graph.has_edge(src[k], dst[k])`` over aligned 1-D
        int64 arrays."""
        tracer = _active_tracer()
        if tracer is not None:
            _span_start = tracer.begin()
        keys = src * self._stride + dst
        slot = ((keys.view(np.uint64) * _GAMMA) >> self._shift).view(np.int64)
        passed = np.flatnonzero(
            (self.filter[slot >> 3] >> (slot & 7).astype(np.uint8)) & np.uint8(1)
        )
        found = np.zeros(keys.size, dtype=bool)
        if passed.size:
            survivors = keys[passed]
            order = survivors.argsort()
            needles = survivors[order]
            pos = np.searchsorted(self.keys, needles)
            np.minimum(pos, self.keys.size - 1, out=pos)
            found[passed[order]] = self.keys[pos] == needles
        if tracer is not None:
            tracer.end(_span_start, "sampling.edge_probe", probes=keys.size,
                       passed=passed.size, hits=int(np.count_nonzero(found)))
        return found

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "edge_keys": self.keys,
            "edge_filter": self.filter,
            "edge_stride": np.array([self.num_vertices], dtype=np.int64),
        }

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray]) -> "EdgeSet":
        """Adopt exported arrays as they are (possibly read-only views of
        shared memory): nothing is copied or rebuilt."""
        return cls(arrays["edge_keys"], arrays["edge_filter"], arrays["edge_stride"][0])


#: One alias-table slot with the two neighbours it can resolve to: the
#: slot's own (``col``) when the draw accepts, its alias's (``alias_col``)
#: when it redirects.  16 bytes, so a DeepWalk hop reads one record where
#: it read ``prob``, ``alias`` and ``col`` from three edge-aligned arrays
#: (and numpy gathers a 16-byte item in one move; a 24-byte slot with
#: int64 ids measured slower than the three arrays).  ``prob`` stays
#: float64: the accept compare is bit for bit the alias table's.
ALIAS_SLOT = np.dtype([("prob", "<f8"), ("col", "<i4"), ("alias_col", "<i4")])

#: Largest vertex count whose ids fit the slot's id fields (2,147,483,647).
_MAX_SLOT_VERTICES = int(np.iinfo(ALIAS_SLOT["col"]).max)

#: Slots per gather of :func:`pack_alias_slots` (1 MiB of positions).
_PACK_BLOCK = 1 << 17


def pack_alias_slots(
    prob: np.ndarray, alias: np.ndarray, row_ptr: np.ndarray, col: np.ndarray
) -> np.ndarray:
    """One :data:`ALIAS_SLOT` record per edge of the rows ``(row_ptr, col)``.

    ``prob``/``alias`` are the rows' flat alias tables
    (:func:`~repro.graph.alias.build_alias_rows` layout: ``alias`` holds
    within-row indices), so ``alias_col = col[row_start + alias]``.  The
    rows may be a whole CSR or one batch of rebuilt rows — vertex ids do
    not depend on where a row sits, so a record stays valid wherever its
    row moves.  Array passes only.  Ids wider than int32 are refused, not
    given a second layout.
    """
    if row_ptr.size - 1 > _MAX_SLOT_VERTICES:
        raise GraphError(
            f"alias slots hold int32 vertex ids: at most {_MAX_SLOT_VERTICES:,} "
            f"vertices, got {row_ptr.size - 1:,}"
        )
    slots = np.empty(prob.size, dtype=ALIAS_SLOT)
    slots["prob"] = prob
    slots["col"] = col
    position = np.repeat(row_ptr[:-1], np.diff(row_ptr))
    position += alias
    # Gathered in blocks: ``position`` stays the one edge-aligned transient.
    alias_col = slots["alias_col"]
    for lo in range(0, position.size, _PACK_BLOCK):
        alias_col[lo : lo + _PACK_BLOCK] = col[position[lo : lo + _PACK_BLOCK]]
    return slots


def graph_alias_slots(graph: CSRGraph) -> np.ndarray:
    """The packed alias state of a whole graph: tables built by the one
    row builder, packed, and dropped."""
    table = build_alias_table(graph)
    return pack_alias_slots(table.prob, table.alias, graph.row_ptr, graph.col)


@dataclass
class BatchSample:
    """One frontier-wide sampling decision.

    ``vertex[k]`` is the id (int64) of the neighbour walker ``k`` moves
    to, ``-1`` when nothing was admissible (the walk terminates early),
    or :data:`STALL` when this call left the walker undecided — a
    rejected proposal, made again by the next call.  ``stalled`` lists
    the :data:`STALL` positions, ascending, so no caller searches for
    them.  Every kernel reads the neighbour itself — most hold it
    already when they decide — so the engine's superstep never touches
    ``col``.  ``proposals``/``neighbor_reads`` follow the same accounting
    contract as :class:`~repro.sampling.base.SampleOutcome`, summed over
    walkers and over this call's proposals only.
    """

    vertex: np.ndarray
    proposals: int
    neighbor_reads: int
    stalled: np.ndarray = field(default_factory=lambda: NO_STALLS)


def neighbor_at(graph: CSRGraph, current: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``col[row_ptr[current[k]] + index[k]]``: the neighbour at each
    walker's within-row ``index``."""
    return graph.col[graph.row_ptr[current] + index]


def flatten_frontier(
    graph: CSRGraph, current: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Segment arrays for a frontier's concatenated neighbor lists.

    Returns ``(counts, segment, within, position)``: walker ``k`` owns
    ``counts[k]`` consecutive flat entries, ``segment[j]`` is the walker
    of flat entry ``j``, ``within[j]`` its within-neighborhood index and
    ``position[j]`` its offset into the CSR column list.  The shared
    gather behind every whole-row scanning kernel.
    """
    counts = graph.degrees()[current].astype(np.int64)
    total = int(counts.sum())
    segment = np.repeat(np.arange(current.size), counts)
    starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    position = graph.row_ptr[current][segment] + within
    return counts, segment, within, position


class VectorizedKernel(ABC):
    """A sampler that advances a whole frontier per call."""

    #: Whether sampling probes adjacency to the previous vertex, i.e. the
    #: kernel's prepared state is an :class:`EdgeSet`.
    second_order = False

    def prepare(self, graph: CSRGraph) -> None:
        """Per-graph preprocessing hook (alias tables, edge keys)."""

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Prepared per-graph state as named flat arrays.

        The parallel engine broadcasts these through shared memory so the
        (potentially expensive) :meth:`prepare` pass runs once in the
        parent instead of once per worker.  Kernels without prepared
        state return an empty mapping.  Must be called after
        :meth:`prepare`.
        """
        return {}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopt prepared state exported by :meth:`state_arrays`.

        ``arrays`` may be zero-copy views of shared memory; kernels must
        not mutate them.  A kernel loaded this way is ready to sample
        without a :meth:`prepare` call.
        """

    @abstractmethod
    def sample(
        self,
        graph: CSRGraph,
        current: np.ndarray,
        previous: np.ndarray,
        admissible_type: int | None,
        streams: QueryStreams,
        stream_idx: np.ndarray | None,
    ) -> BatchSample:
        """Choose the next vertex of every walker in the frontier
        (:class:`BatchSample`: neighbour ids, ``-1`` = nothing admissible,
        :data:`STALL` = undecided, ask again).

        One call is one round of draws per walker: a kernel never loops
        until a walker is decided — a walker it cannot decide yet it
        reports stalled, and the engine's next superstep asks again.
        ``current``/``previous`` are aligned int64 arrays (``previous`` is
        ``-1`` on a first hop); every ``current[k]`` must have out-degree
        >= 1 — the engine terminates dangling walkers before sampling.
        ``stream_idx[k]`` addresses walker ``k``'s substream; ``None``
        means stream ``k`` *is* walker ``k`` (the engines' compact
        frontier), which lets whole-frontier draws advance in place.
        """

    def stalled_out(self, stalls: int) -> SamplingError:
        """The error of a walker this kernel left undecided ``stalls``
        calls running (the superstep raises it at :data:`MAX_STALLS`)."""
        return SamplingError(
            f"{type(self).__name__} left a walker undecided for {stalls} supersteps"
        )


class UniformKernel(VectorizedKernel):
    """Uniform neighbor choice (URW, PPR): one draw, one read per walker."""

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        choice = streams.randints(graph.degrees()[current], stream_idx)
        return BatchSample(neighbor_at(graph, current, choice),
                           proposals=current.size, neighbor_reads=current.size)


class AliasKernel(VectorizedKernel):
    """Weighted O(1) choice via packed alias slots (DeepWalk): one
    :data:`ALIAS_SLOT` gather per hop decides and names the neighbour."""

    def __init__(self) -> None:
        self._slots: np.ndarray | None = None

    def prepare(self, graph: CSRGraph) -> None:
        self._slots = graph_alias_slots(graph)

    def state_arrays(self) -> dict[str, np.ndarray]:
        if self._slots is None:
            raise SamplingError("AliasKernel.prepare(graph) must run before exporting state")
        return {"alias_slots": self._slots}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        self._slots = arrays["alias_slots"]

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        if self._slots is None:
            raise SamplingError("AliasKernel.prepare(graph) must be called before sampling")
        degrees = graph.degrees()[current]
        u1 = streams.uniforms(stream_idx)
        u2 = streams.uniforms(stream_idx)
        slot = np.minimum((u1 * degrees).astype(np.int64), degrees - 1)
        entry = self._slots[graph.row_ptr[current] + slot]
        # where(u2 < prob, col, alias_col), written without a branch: on
        # a mask no predictor can learn, np.where costs twice these
        # three passes.
        redirect = entry["alias_col"]
        vertex = entry["col"] - redirect
        vertex *= u2 < entry["prob"]
        vertex += redirect
        # Same accounting as AliasSampler: alias slot + chosen neighbor.
        return BatchSample(vertex.astype(np.int64), proposals=current.size,
                           neighbor_reads=2 * current.size)


class ITSKernel(VectorizedKernel):
    """Weighted inverse-transform sampling over prepared flat CDF rows.

    The vectorized twin of the *prepared*
    :class:`~repro.sampling.its.InverseTransformSampler` path: one
    uniform per walker is scaled by the row's total weight and located in
    the row's CDF slice.  Instead of a per-walker ``searchsorted``, the
    frontier's CDF slices are flattened and the within-row index is the
    per-segment count of entries at or below the target — the same
    "first running total exceeding the target" rule, so the realized
    distribution and the sequential-scan read accounting
    (``index + 1`` reads per draw) match the scalar sampler exactly.
    """

    def __init__(self) -> None:
        self._cdf: np.ndarray | None = None
        self._row_totals: np.ndarray | None = None

    def prepare(self, graph: CSRGraph) -> None:
        self._cdf = build_its_cdf(graph)
        self._row_totals = build_its_row_totals(graph)

    def state_arrays(self) -> dict[str, np.ndarray]:
        if self._cdf is None or self._row_totals is None:
            raise SamplingError("ITSKernel.prepare(graph) must run before exporting state")
        return {"its_cdf": self._cdf, "its_row_totals": self._row_totals}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        self._cdf = arrays["its_cdf"]
        self._row_totals = arrays["its_row_totals"]

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        if self._cdf is None or self._row_totals is None:
            raise SamplingError("ITSKernel.prepare(graph) must be called before sampling")
        degrees = graph.degrees()[current]
        target = streams.uniforms(stream_idx) * self._row_totals[current]
        _, segment, _, position = flatten_frontier(graph, current)
        below = self._cdf[position] <= target[segment]
        choice = np.bincount(segment[below], minlength=current.size)
        # Round-off can leave target == total weight; take the last entry,
        # exactly like the scalar sampler's fell-off-the-scan clamp.
        choice = np.minimum(choice.astype(np.int64), degrees - 1)
        # Sequential-scan accounting: a scan stopping at ``index`` has read
        # ``index + 1`` weights.
        reads = int(choice.sum()) + current.size
        return BatchSample(neighbor_at(graph, current, choice),
                           proposals=current.size, neighbor_reads=reads)


class RejectionKernel(VectorizedKernel):
    """Node2Vec rejection sampling, one proposal round per call.

    Every walker proposes a uniform neighbor and accepts it with
    probability ``bias / max_bias``; a rejected walker is reported
    stalled (:data:`STALL`) and proposes again in the engine's next
    superstep, beside walkers that are hops ahead of it — no call waits
    for its slowest walker.  The draws a walker makes are those of the
    scalar sampler's retry loop, in the same order, wherever its retries
    fall.  First hops (no previous vertex) are degenerate-uniform and
    accepted outright — see the matching fix in
    :class:`~repro.sampling.rejection.RejectionSampler`.
    """

    second_order = True

    def __init__(self, sampler: RejectionSampler | None = None, *,
                 p: float | None = None, q: float | None = None) -> None:
        # Wrap the (already validated) scalar sampler so the bias
        # derivation has one source of truth; p/q kwargs are a
        # convenience that constructs one.
        if sampler is None:
            if p is None or q is None:
                raise SamplingError("RejectionKernel needs a sampler or both p and q")
            sampler = RejectionSampler(p=p, q=q)
        self._sampler = sampler
        self._edge_set: EdgeSet | None = None
        max_bias = sampler.max_bias
        # Accept thresholds per candidate class.
        self._return_accept = sampler.return_bias / max_bias
        self._adjacent_accept = 1.0 / max_bias
        self._explore_accept = sampler.explore_bias / max_bias
        # The accept decision only consults adjacency when the drawn
        # uniform falls *between* the adjacent-class and explore-class
        # thresholds; outside that band both classes decide identically
        # (below it both accept, above it both reject), so every other
        # non-return candidate is decided as explore-class and the probe
        # is skipped.  Decisions — and stream consumption — are
        # bit-identical to the probe-everything formulation.
        self._probe_lo = min(self._adjacent_accept, self._explore_accept)
        self._probe_hi = max(self._adjacent_accept, self._explore_accept)

    @property
    def p(self) -> float:
        return self._sampler.p

    @property
    def q(self) -> float:
        return self._sampler.q

    def prepare(self, graph: CSRGraph) -> None:
        self._edge_set = EdgeSet.build(graph)

    def state_arrays(self) -> dict[str, np.ndarray]:
        if self._edge_set is None:
            raise SamplingError("RejectionKernel.prepare(graph) must run before exporting state")
        return self._edge_set.state_arrays()

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        self._edge_set = EdgeSet.from_state(arrays)

    def stalled_out(self, stalls: int) -> SamplingError:
        return SamplingError(
            f"rejection sampling failed to accept after {stalls} rounds "
            f"(p={self.p}, q={self.q})"
        )

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        if self._edge_set is None:
            raise SamplingError("RejectionKernel.prepare(graph) must be called before sampling")
        degrees = graph.degrees()[current]
        first_hop = previous < 0
        if first_hop.all():
            # A whole frontier on its first hop (every engine's step 0):
            # one degenerate-uniform draw each.
            choice = streams.randints(degrees, stream_idx)
            return BatchSample(neighbor_at(graph, current, choice),
                               proposals=current.size, neighbor_reads=current.size)
        if first_hop.any():
            # Mixed frontier: first hops draw once, the rest run as a
            # frontier of their own (draws are per stream, so splitting
            # changes no walker's sequence).
            first = np.flatnonzero(first_hop)
            rest = np.flatnonzero(~first_hop)
            vertex = np.empty(current.size, dtype=np.int64)
            choice = streams.randints(degrees[first], sub_streams(stream_idx, first))
            vertex[first] = neighbor_at(graph, current[first], choice)
            batch = self.sample(graph, current[rest], previous[rest], admissible_type,
                                streams, sub_streams(stream_idx, rest))
            vertex[rest] = batch.vertex
            return BatchSample(vertex, proposals=first.size + batch.proposals,
                               neighbor_reads=first.size + batch.neighbor_reads,
                               stalled=rest[batch.stalled])

        # One proposal per walker, drawn through ``stream_idx`` itself (in
        # place when that is ``None``).  An accepted candidate is the next
        # vertex: no read follows.
        candidate = graph.col[graph.row_ptr[current] + streams.randints(degrees, stream_idx)]
        is_return = candidate == previous
        not_return = ~is_return
        u = streams.uniforms(stream_idx)
        threshold = np.full(u.size, self._explore_accept)
        threshold[is_return] = self._return_accept
        undecided = np.flatnonzero(
            not_return & (u >= self._probe_lo) & (u < self._probe_hi)
        )
        if undecided.size:
            adjacent = self._edge_set.contains(previous[undecided], candidate[undecided])
            threshold[undecided[adjacent]] = self._adjacent_accept
        # ``neighbor_reads`` is the *modeled* cost of the scalar sampler —
        # one read for the proposal plus an O(deg(prev)) adjacency scan
        # whenever the candidate is not the return edge — not the lookup
        # work done here (a mostly skipped filter + sorted-key probe).  It
        # is part of the cross-engine ``EngineStats`` identity.
        reads = u.size + int(graph.degrees()[previous[not_return]].sum())
        stalled = np.flatnonzero(u >= threshold)
        candidate[stalled] = STALL
        return BatchSample(candidate, proposals=current.size, neighbor_reads=reads,
                           stalled=stalled)


class ReservoirKernel(VectorizedKernel):
    """Single-pass weighted reservoir choice over flattened frontiers.

    Covers weighted first-order walks, weighted Node2Vec (``p``/``q``
    biases) and MetaPath (edge-type admissibility): the frontier's
    neighbor lists are flattened into one segment array, exponential-race
    keys ``u**(1/w)`` are drawn per edge, and a segmented argmax
    (:func:`~repro.graph.rows.segment_last_argmax`) picks each walker's
    winner.  A walker whose segment has no admissible entry
    gets ``-1`` (early termination), mirroring the scalar sampler.
    """

    def __init__(self, sampler: ReservoirSampler | None = None, *,
                 p: float | None = None, q: float | None = None) -> None:
        # Wrap the (already validated) scalar sampler; p/q kwargs are a
        # convenience that constructs one.
        if sampler is None:
            sampler = ReservoirSampler(p=p, q=q)
        self._sampler = sampler
        self._edge_set: EdgeSet | None = None

    @property
    def p(self) -> float | None:
        return self._sampler.p

    @property
    def q(self) -> float | None:
        return self._sampler.q

    @property
    def second_order(self) -> bool:
        return self._sampler.second_order

    def prepare(self, graph: CSRGraph) -> None:
        if self.second_order:
            self._edge_set = EdgeSet.build(graph)

    def state_arrays(self) -> dict[str, np.ndarray]:
        if not self.second_order:
            return {}
        if self._edge_set is None:
            raise SamplingError("ReservoirKernel.prepare(graph) must run before exporting state")
        return self._edge_set.state_arrays()

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        if self.second_order:
            self._edge_set = EdgeSet.from_state(arrays)

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        if admissible_type is not None and graph.edge_types is None:
            raise SamplingError("admissible_type given but the graph has no edge types")
        counts, segment, within, position = flatten_frontier(graph, current)
        if graph.is_weighted:
            weight = graph.weights[position]
        else:
            weight = np.ones(position.size, dtype=np.float64)

        if self.second_order:
            if self._edge_set is None:
                raise SamplingError(
                    "ReservoirKernel.prepare(graph) must be called before sampling"
                )
            # Only entries of walkers with a previous vertex carry a bias
            # (and cost a probe); a first hop keeps its plain weights.
            prev = previous[segment]
            has_prev = prev >= 0
            biased = slice(None) if has_prev.all() else np.flatnonzero(has_prev)
            prev = prev[biased]
            if prev.size:
                candidate = graph.col[position[biased]]
                adjacent = self._edge_set.contains(prev, candidate)
                weight[biased] *= np.where(
                    candidate == prev,
                    1.0 / self.p,
                    np.where(adjacent, 1.0, 1.0 / self.q),
                )

        eligible = weight > 0
        if admissible_type is not None:
            eligible &= graph.edge_types[position] == admissible_type
        u = streams.element_uniforms(stream_idx, counts, segment=segment, within=within)
        # Same u == 0 guard as the scalar sampler: keep keys positive so
        # ordering against the -1 sentinel stays correct.
        u = np.where(u == 0.0, 5e-324, u)
        with np.errstate(divide="ignore"):
            key = np.where(eligible, u ** (1.0 / weight), -1.0)
        # Ties go to the later entry, as a stable sort of the keys would.
        best = segment_last_argmax(key, np.cumsum(counts) - counts, segment)
        vertex = np.where(key[best] > -0.5, graph.col[position[best]], np.int64(-1))
        return BatchSample(vertex, proposals=current.size, neighbor_reads=position.size)


def make_kernel(sampler: Sampler) -> VectorizedKernel:
    """Map a scalar sampler onto its vectorized kernel.

    The factory keys on sampler type so a :class:`~repro.walks.base.WalkSpec`
    needs no changes to run on the batch engine.
    """
    if isinstance(sampler, UniformSampler):
        return UniformKernel()
    if isinstance(sampler, AliasSampler):
        return AliasKernel()
    if isinstance(sampler, InverseTransformSampler):
        return ITSKernel()
    if isinstance(sampler, RejectionSampler):
        return RejectionKernel(sampler)
    if isinstance(sampler, ReservoirSampler):
        return ReservoirKernel(sampler)
    raise SamplingError(
        f"no vectorized kernel for sampler {sampler.name!r}; use the reference engine"
    )
