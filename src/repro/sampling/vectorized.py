"""NumPy-vectorized sampling kernels for the batch walk engine.

The reference engine samples one hop of one walker at a time; these
kernels sample one hop of an *entire frontier* of walkers in a handful of
array operations — the software analogue of RidgeWalker's pipelined
Sampling module, and the step-centric batching that ThunderRW showed is
the key to software GRW throughput.

Three ingredients make the kernels drop-in replacements for the scalar
samplers in this package:

* :class:`QueryStreams` — one independent random substream per query,
  keyed by ``np.random.SeedSequence((seed, query_id))`` and advanced for
  the whole frontier with vectorized splitmix64 arithmetic.  The
  reference engine and the cycle model draw from the same streams one
  query at a time, through :class:`QueryStream`, the same arithmetic in
  Python ints.
* :class:`EdgeSet` — the one exact edge-membership structure every
  second-order kernel probes: a bucketed table of the edge keys
  (``src * |V| + dst``) behind a 16-bits-per-edge bit filter, so a batch
  of Node2Vec adjacency probes is one hash + one cached bit read each,
  and one 64-byte table line for each pair the filter could not rule
  out (a small sorted stash for the few lines that overflowed).
  It and DeepWalk's packed alias slots are a graph's prepared state,
  owned by its one :class:`SamplerState`: a kernel's ``prepare(graph)``
  reads them there, so each is built once per graph.
* the same cost-counter contract as the scalar samplers: proposals and
  neighbor reads are accounted identically.  ``neighbor_reads`` is a
  *modeled* cost (the rejection kernel charges the scalar sampler's
  ``O(deg(prev))`` scan per non-return proposal), part of the
  cross-engine ``EngineStats`` identity — not a measure of the lookup
  work the filter saves.

A kernel draws what its scalar sampler draws, in the same order, from
the same stream, so the reference engine and the cycle model walk
bit-identically to the batch engine (``tests/walks/test_engine_matrix.py``,
``tests/sampling/test_kernel_properties.py``,
``tests/sim/test_sim_equals_batch.py``).
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import GraphError, SamplingError
from repro.graph.alias import build_alias_table
from repro.graph.csr import CSRGraph
from repro.graph.rows import segment_last_argmax
from repro.obs.trace import active as _active_tracer
from repro.obs.trace import span as _trace_span
from repro.sampling.alias_sampler import AliasSampler
from repro.sampling.base import Sampler, normalize_seed
from repro.sampling.rejection import _MAX_REJECTION_ROUNDS, RejectionSampler
from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.uniform import UniformSampler

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_ELEMENT_GAMMA = np.uint64(0xD1B54A32D192ED03)
_TO_UNIT = 1.0 / (1 << 53)
#: The same constants as Python ints, for :class:`QueryStream`.
_GAMMA_INT, _MIX_1_INT, _MIX_2_INT = int(_GAMMA), int(_MIX_1), int(_MIX_2)
_MASK_64 = (1 << 64) - 1
#: The shifts of the splitmix64 finalizer and of the 53-bit uniform, made
#: once: a numpy scalar built per call costs as much as a small pass.
_SHIFT_30, _SHIFT_27, _SHIFT_31 = np.uint64(30), np.uint64(27), np.uint64(31)
_SHIFT_UNIT = np.uint64(11)

#: The inverse of ``_GAMMA`` mod 2**64: a key back from its hash.
_GAMMA_INVERSE = np.uint64(pow(int(_GAMMA), -1, 1 << 64))

#: Sizing rule of the edge filter (see :func:`build_edge_filter`).
_FILTER_BITS_PER_EDGE = 16
_FILTER_MIN_BITS = 6
#: log2 of the filter bits built per block (a 1 MiB unpacked block).
_FILTER_BLOCK_BITS = 20

#: Ways of one edge-table bucket: eight int64 keys, one 64-byte line
#: (see :func:`build_edge_table`).
_TABLE_WAYS = 8
#: An edge-table way no key fills (keys are non-negative).
_EMPTY_WAY = -1
#: log2 of the edge-table buckets built per block (256 KiB of lines).
_TABLE_BLOCK_BITS = 12

#: ``BatchSample.vertex`` of a walker the kernel left undecided.
STALL = -2

#: A walker left undecided this many supersteps running fails its run:
#: rejection sampling's safety valve (as many proposals for one hop as
#: the scalar sampler allows), counted per walker by the superstep.
MAX_STALLS = _MAX_REJECTION_ROUNDS

#: ``BatchSample.stalled`` of a decision that left no walker undecided,
#: and ``BatchSample.ended`` of one that ended no walk.
NO_STALLS = np.empty(0, dtype=np.intp)
NO_STALLS.setflags(write=False)

# numpy SeedSequence hashing constants (numpy/random/bit_generator.pyx).
# The batched derivation below reproduces SeedSequence bit-for-bit, so
# the per-query substreams stay ``SeedSequence((seed, query_id))``-keyed
# while costing a handful of array ops instead of one SeedSequence object
# per query.
_SS_POOL_SIZE = 4
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_MULT_L = 0xCA01F9DD
_SS_MIX_MULT_R = 0x4973F715
_SS_MIX_L = np.uint32(_SS_MIX_MULT_L)
_SS_MIX_R = np.uint32(_SS_MIX_MULT_R)
_SS_XSHIFT = np.uint32(16)
_SS_WORD_MASK = 0xFFFFFFFF

#: Up to this many ids, :func:`seed_sequence_states` hashes each id in
#: Python ints (:func:`_ss_state`): the array pipeline is ~40 tiny passes,
#: ~105 us a call however few ids it carries, against ~10 us an id (numpy's
#: own ``SeedSequence`` takes ~15 us an id on the same 2-CPU host).  The
#: two routes cross near ten ids, and the winner moves with host load.
_SS_SCALAR_MAX_IDS = 8


def _ss_rounds(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The ``(xor, multiplier)`` constants of ``count`` successive hash
    rounds from ``init``: SeedSequence's hash constant does not depend on
    the data, so every round's pair is known before any id is."""
    rounds, const = [], init
    for _ in range(count):
        rounds.append((const, (const * mult) & _SS_WORD_MASK))
        const = rounds[-1][1]
    return rounds


#: The rounds of one id: the entropy-pool fill (one a word), the pool mix
#: (``(src, dst, xor, multiplier)``, one per ordered pair of distinct
#: words) and the two output words.
_SS_HASH_ROUNDS = _ss_rounds(_SS_INIT_A, _SS_MULT_A, _SS_POOL_SIZE + 12)
_SS_FILL_ROUNDS = _SS_HASH_ROUNDS[:_SS_POOL_SIZE]
_SS_MIX_ROUNDS = [
    (src, dst, *constants)
    for (src, dst), constants in zip(
        [(src, dst) for src in range(_SS_POOL_SIZE) for dst in range(_SS_POOL_SIZE) if src != dst],
        _SS_HASH_ROUNDS[_SS_POOL_SIZE:],
    )
]
_SS_OUTPUT_ROUNDS = _ss_rounds(_SS_INIT_B, _SS_MULT_B, 2)


def _ss_state(words: list[int]) -> int:
    """``SeedSequence(words).generate_state(1, np.uint64)[0]`` as a Python
    int, for at most :data:`_SS_POOL_SIZE` 32-bit entropy words: the hash
    pipeline of :func:`_ss_states_for_words`, one id at a time."""
    if len(words) > _SS_POOL_SIZE:
        raise SamplingError("seed/query-id entropy exceeds the SeedSequence pool")
    pool = []
    for word, (xor, mult) in zip(words + [0] * (_SS_POOL_SIZE - len(words)), _SS_FILL_ROUNDS):
        value = (word ^ xor) * mult & _SS_WORD_MASK
        pool.append(value ^ value >> 16)
    for src, dst, xor, mult in _SS_MIX_ROUNDS:
        value = (pool[src] ^ xor) * mult & _SS_WORD_MASK
        value = pool[dst] * _SS_MIX_MULT_L - (value ^ value >> 16) * _SS_MIX_MULT_R
        value &= _SS_WORD_MASK
        pool[dst] = value ^ value >> 16
    (xor_lo, mult_lo), (xor_hi, mult_hi) = _SS_OUTPUT_ROUNDS
    low = (pool[0] ^ xor_lo) * mult_lo & _SS_WORD_MASK
    high = (pool[1] ^ xor_hi) * mult_hi & _SS_WORD_MASK
    return (low ^ low >> 16) | (high ^ high >> 16) << 32


def _ss_states_one_by_one(seed_words: list[int], query_ids) -> np.ndarray:
    """The states of a few ids, one :func:`_ss_state` each."""
    states = []
    for query_id in query_ids:
        query_id = int(query_id)
        if query_id < 0:
            raise SamplingError("query ids must be non-negative")
        states.append(_ss_state(seed_words + _int_to_words(query_id)))
    return np.array(states, dtype=np.uint64)


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
    A handful of ids (:data:`_SS_SCALAR_MAX_IDS`; the walk service
    derives a turn's arrivals, a few at most) are hashed one by one in
    Python ints (:func:`_ss_state`), which is cheaper than the array
    passes' fixed cost and than numpy's own ``SeedSequence``.  Equality of
    the routes with each other and with numpy is enforced by tests.
    """
    # Mask to valid SeedSequence entropy first: a negative int would make
    # _int_to_words loop forever (Python's >> keeps negatives negative),
    # and the engines' contract is "any int seed works".
    seed = normalize_seed(seed)
    seed_words = _int_to_words(seed)
    if isinstance(query_ids, np.ndarray):
        if query_ids.size <= _SS_SCALAR_MAX_IDS:
            return _ss_states_one_by_one(seed_words, query_ids.ravel().tolist())
    elif len(query_ids) <= _SS_SCALAR_MAX_IDS:
        return _ss_states_one_by_one(seed_words, query_ids)
    ids = np.asarray(query_ids)
    if ids.dtype.kind == "i" and ids.size and ids.min() < 0:
        raise SamplingError("query ids must be non-negative")
    ids = ids.astype(np.uint64)
    if ids.ndim != 1:
        ids = ids.reshape(-1)
    states = np.empty(ids.size, dtype=np.uint64)
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
    z = (z ^ (z >> _SHIFT_30)) * _MIX_1
    z = (z ^ (z >> _SHIFT_27)) * _MIX_2
    return z ^ (z >> _SHIFT_31)


def _to_unit(bits: np.ndarray) -> np.ndarray:
    """Map uint64 outputs to float64 uniforms in [0, 1) (53 usable bits)."""
    unit = (bits >> _SHIFT_UNIT).astype(np.float64)
    unit *= _TO_UNIT
    return unit


class QueryStreams:
    """Per-query random substreams advanced in batch.

    Stream ``q`` is seeded from ``SeedSequence((seed, query_id))`` and
    advanced with splitmix64, so every query's randomness is independent
    of batch composition and query order, and two distinct ``(seed,
    query_id)`` pairs never collide (the property the old xor-mix
    derivation lacked).  The batch engine draws a frontier's streams
    here; the reference engine and the cycle model's tasks draw each
    query's one stream through a :class:`QueryStream` — the same
    arithmetic, so every executor walks alike.
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

        A batch :class:`~repro.walks.batch.Frontier` carries each live
        walker's state from superstep to superstep; each superstep wraps
        the carried state array — zero-copy, so every draw advances the
        caller's array in place — and the walk continues bit-identically
        to one drawn from a single :class:`QueryStreams` throughout.
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
        """One integer in ``[0, bounds[k])`` from each selected stream.

        ``bounds`` is an int64 array of positive bounds below ``2**53``,
        and the draw needs no clamp: a uniform is at most ``1 - 2**-53``,
        and times such a bound that rounds to a float below the bound
        (``tests/sampling/test_vectorized.py::TestNoClamp``).
        """
        draw = self.uniforms(idx)
        draw *= bounds
        return draw.astype(np.int64)

    def element_uniforms(
        self,
        idx: np.ndarray | None,
        counts: np.ndarray | None,
        segment: np.ndarray | None = None,
        within: np.ndarray | None = None,
    ) -> np.ndarray:
        """``counts[k]`` uniforms from stream ``idx[k]``, flattened.

        Each selected stream's state advances once; the per-element values
        are derived counter-style from the advanced state and the
        element's index inside its segment, so a scan over a large
        neighbor list costs one state bump regardless of degree.
        Callers that already flattened ``counts`` into ``segment`` (the
        selected-stream position of each element) and ``within`` (the
        element's index inside its segment) can pass both to skip the
        redundant repeat/cumsum pass; ``counts`` is then not read, and
        ``within`` may list any indices (:class:`QueryStream` asks for a
        row's eligible entries only).
        """
        advanced = self._advance(idx)
        if segment is None or within is None:
            total = int(counts.sum())
            segment = np.repeat(np.arange(counts.size), counts)
            starts = np.cumsum(counts) - counts
            within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        salt = _mix64(within.astype(np.uint64) + _ELEMENT_GAMMA)
        return _to_unit(_mix64(advanced[segment] ^ salt))


class QueryStream:
    """One query's :class:`QueryStreams` stream, held as a Python int: the
    scalar samplers' random source, in the reference engine and in every
    task of the cycle model.

    ``state`` is the stream's splitmix64 state, e.g. one entry of
    :func:`seed_sequence_states`; every draw is the batch kernels' draw on
    a one-stream frontier — advance by ``_GAMMA``, the ``_mix64``
    finaliser, ``(z >> 11) * 2**-53`` — so a scalar sampler that draws
    what its kernel draws, in the same order, takes the same walk.
    """

    __slots__ = ("state",)

    def __init__(self, state: int) -> None:
        self.state = int(state)

    def _advance(self) -> int:
        self.state = state = (self.state + _GAMMA_INT) & _MASK_64
        return state

    def uniform(self) -> float:
        """Uniform float in ``[0, 1)``: one bump."""
        z = self._advance()
        z = (z ^ z >> 30) * _MIX_1_INT & _MASK_64
        z = (z ^ z >> 27) * _MIX_2_INT & _MASK_64
        return ((z ^ z >> 31) >> 11) * _TO_UNIT

    def randint(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``, drawn as
        :meth:`QueryStreams.randints` draws it: ``int(u * bound)``."""
        if bound <= 0:
            raise SamplingError(f"bound must be positive, got {bound}")
        return int(self.uniform() * bound)

    def element_uniforms(self, within: np.ndarray) -> np.ndarray:
        """One uniform per listed within-row index, in order, for one
        bump — whatever their number, none included, as the reservoir
        kernel bumps each walker once per scan."""
        salt = _mix64(np.asarray(within, dtype=np.uint64) + _ELEMENT_GAMMA)
        return _to_unit(_mix64(np.uint64(self._advance()) ^ salt))


def sub_streams(stream_idx: np.ndarray | None, group: np.ndarray) -> np.ndarray:
    """Stream indices of the walkers at frontier positions ``group``
    (``stream_idx=None``: walker ``k`` reads stream ``k``)."""
    return group if stream_idx is None else stream_idx[group]


def build_edge_keys(graph: CSRGraph) -> np.ndarray:
    """``src * |V| + dst`` of every edge, in CSR order (an :class:`EdgeSet`
    hashes them, so they need no order of their own)."""
    n = np.int64(graph.num_vertices)
    sources = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    keys = sources * n
    keys += graph.col
    return keys


def _prefix_runs(hashes: np.ndarray, bits: int, step: int) -> list[tuple[int, np.ndarray]]:
    """Sorted ``hashes`` cut where their ``bits``-bit prefix crosses a
    multiple of ``step``: one ``(first prefix, run)`` per block of
    ``step`` prefixes, in order, empty runs included."""
    firsts = np.arange(0, 1 << bits, step, dtype=np.uint64)
    bounds = np.searchsorted(hashes, firsts[1:] << np.uint64(64 - bits))
    return list(zip(firsts.tolist(), np.split(hashes, bounds)))


def build_edge_filter(hashes: np.ndarray) -> np.ndarray:
    """Bit filter over sorted edge hashes: bit ``hash >> (64 - bits)`` set
    for every hash.

    The size is a fixed rule, not an option: the smallest power of two
    holding at least :data:`_FILTER_BITS_PER_EDGE` bits per edge (fill
    at most 1/16, so at most that share of absent keys survives to the
    table).  Built in blocks of ``2**_FILTER_BLOCK_BITS`` bits: the
    sorted hashes of a block are scattered into one reused unpacked
    block and packed.
    """
    bits = max((_FILTER_BITS_PER_EDGE * hashes.size - 1).bit_length(), _FILTER_MIN_BITS)
    step = 1 << min(bits, _FILTER_BLOCK_BITS)
    shift = np.uint64(64 - bits)
    packed = np.empty(1 << (bits - 3), dtype=np.uint8)
    unpacked = np.empty(step, dtype=bool)
    for first, run in _prefix_runs(hashes, bits, step):
        unpacked[:] = False
        slot = (run >> shift).view(np.int64)
        slot -= first
        unpacked[slot] = True
        packed[first >> 3 : (first + step) >> 3] = np.packbits(unpacked, bitorder="little")
    return packed


def build_edge_table(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(table, overflow, stash)``: every edge key of the sorted
    ``hashes``, by bucket.

    ``table`` has ``2**b`` lines of :data:`_TABLE_WAYS` int64 ways, ``b =
    (|E| // 8).bit_length()`` (a fixed rule: 0.5 to 1 keys a way); a key
    lives in the line its hash's top ``b`` bits name, ways unused by any
    key hold :data:`_EMPTY_WAY`.  A line's keys beyond its eight go to
    ``stash``, sorted, and set the line's ``overflow`` flag.  Keys come
    back from their hashes through the inverse multiplier.  Built in
    blocks of ``2**_TABLE_BLOCK_BITS`` lines: a block's hashes are
    one contiguous run, since the bucket is a prefix of the hash.
    """
    bits = (hashes.size // _TABLE_WAYS).bit_length()
    step = 1 << min(bits, _TABLE_BLOCK_BITS)
    table = np.full((1 << bits, _TABLE_WAYS), _EMPTY_WAY, dtype=np.int64)
    overflow = np.empty(1 << bits, dtype=bool)
    shift = np.uint64(64 - bits)
    stash = []
    for first, run in _prefix_runs(hashes, bits, step):
        bucket = (run >> shift).view(np.int64)
        bucket -= first
        counts = np.bincount(bucket, minlength=step)
        overflow[first : first + step] = counts > _TABLE_WAYS
        way = np.arange(run.size)
        way -= np.repeat(np.cumsum(counts) - counts, counts)
        keys = (run * _GAMMA_INVERSE).view(np.int64)
        inline = way < _TABLE_WAYS
        bucket *= _TABLE_WAYS
        bucket += way  # each key's place among the block's ways
        table[first : first + step].reshape(-1)[bucket[inline]] = keys[inline]
        stash.append(keys[~inline])
    return table, overflow, np.sort(np.concatenate(stash))


class EdgeSet:
    """The one exact edge-membership structure behind every adjacency probe.

    On Node2Vec most probes ask about a pair that is *not* an edge.  A
    power-of-two bit array — bit ``hash >> (64 - bits)`` of the
    Fibonacci hash ``key * _GAMMA mod 2**64`` of every ``src * |V| +
    dst`` key, >= 16 bits per edge — answers most of those from one
    cached read.  Behind it, one bucketed table of every key
    (:func:`build_edge_table`) answers a survivor — a real edge or one
    of the filter's few false passes — from the one 64-byte line its
    hash's top bits name, and only a survivor that missed a line flagged
    as overflowed reads the small sorted stash.  Both are prefixes of
    the same hash, so one sort of the hashes builds both.  Membership
    is exact, so callers' decisions are those of a plain sorted-key
    probe.
    """

    def __init__(self, bit_filter: np.ndarray, table: np.ndarray, overflow: np.ndarray,
                 stash: np.ndarray, num_vertices: int) -> None:
        self.filter = bit_filter
        self.table = table
        self.overflow = overflow
        self.stash = stash
        self.num_vertices = int(num_vertices)
        self._stride = np.int64(num_vertices)
        # ``filter.size`` bytes hold ``2**filter_bits`` bits; the bucket is
        # the top ``log2(len(table))`` of those bits.
        filter_bits = bit_filter.size.bit_length() + 2
        self._filter_shift = np.uint64(64 - filter_bits)
        self._bucket_shift = np.int64(filter_bits - (len(table).bit_length() - 1))

    @classmethod
    def build(cls, graph: CSRGraph) -> "EdgeSet":
        hashes = build_edge_keys(graph).view(np.uint64)
        hashes *= _GAMMA  # the keys are this call's own: hashed in place
        hashes.sort()
        arrays = (build_edge_filter(hashes), *build_edge_table(hashes))
        for array in arrays:
            array.setflags(write=False)  # shared by every kernel of the graph
        return cls(*arrays, graph.num_vertices)

    def contains(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized ``graph.has_edge(src[k], dst[k])`` over aligned 1-D
        int64 arrays."""
        tracer = _active_tracer()
        if tracer is not None:
            _span_start = tracer.begin()
        keys = src * self._stride + dst
        slot = ((keys.view(np.uint64) * _GAMMA) >> self._filter_shift).view(np.int64)
        passed = np.flatnonzero(
            (self.filter[slot >> 3] >> (slot & 7).astype(np.uint8)) & np.uint8(1)
        )
        found = np.zeros(keys.size, dtype=bool)
        stashed = 0
        if passed.size:
            needles = keys[passed]
            bucket = slot[passed] >> self._bucket_shift
            # A line's eight compares are eight adjacent bools: one uint64
            # each, non-zero where any way matched.
            hit = (self.table[bucket] == needles[:, None]).view(np.uint64)[:, 0] != 0
            missed = np.flatnonzero(~hit & self.overflow[bucket])
            stashed = missed.size
            if stashed:
                needles = needles[missed]
                pos = np.searchsorted(self.stash, needles)
                np.minimum(pos, self.stash.size - 1, out=pos)
                hit[missed] = self.stash[pos] == needles
            found[passed] = hit
        if tracer is not None:
            tracer.end(_span_start, "sampling.edge_probe", probes=keys.size,
                       passed=passed.size, stashed=stashed,
                       hits=int(np.count_nonzero(found)))
        return found


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
    """The packed alias state of a whole graph, read-only: tables built by
    the one row builder, packed, and dropped."""
    table = build_alias_table(graph)
    slots = pack_alias_slots(table.prob, table.alias, graph.row_ptr, graph.col)
    slots.setflags(write=False)  # shared by every kernel of the graph
    return slots


class SamplerState:
    """The prepared arrays one graph's kernels sample, built on first read.

    :meth:`of` is the one way to reach them: one state per ``CSRGraph``
    object, kept on the frozen graph, so every kernel prepared for that
    graph — an engine's, a traced proxy's, one swapped onto a dynamic
    snapshot — reads the same read-only copy, built at most once.  Two
    members: :attr:`alias_slots` (DeepWalk's :data:`ALIAS_SLOT` records)
    and :attr:`edge_set` (the second-order kernels' :class:`EdgeSet`);
    uniform and first-order reservoir kernels read neither.

    ``held`` maps each member built so far to its value.  ``builds``
    counts ``(member, kind)`` builds: ``"scratch"`` on a read,
    ``"incremental"`` when a dynamic snapshot carries a member the
    previous epoch held into the next one
    (:func:`repro.dynamic.state.advance_graph_and_state`), whose states
    all share one counter.  Telemetry, unsynchronised: readers racing on
    another thread may build a member twice and count it once.
    """

    def __init__(self, graph: CSRGraph) -> None:
        # Weak: the graph owns its state, so a dropped graph is freed by
        # its reference count alone, with its arrays (a cycle would wait
        # for the collector, an epoch's arrays with it).  Hold the graph,
        # not only its state.
        self._graph = weakref.ref(graph)
        self.held: dict[str, object] = {}
        self.builds: Counter = Counter()

    @classmethod
    def of(cls, graph: CSRGraph) -> "SamplerState":
        """The state of ``graph``, made empty on its first request."""
        state = graph._sampler_state
        if state is None:
            state = cls(graph)
            object.__setattr__(graph, "_sampler_state", state)
        return state

    def hold(self, name: str, member, kind: str) -> None:
        """Keep a built member and count its build."""
        self.held[name] = member
        self.builds[name, kind] += 1

    def _read(self, name: str, build):
        member = self.held.get(name)
        if member is None:
            graph = self._graph()
            if graph is None:
                raise SamplingError(f"cannot build {name}: this sampler state's graph is gone")
            with _trace_span("sampling.build_member", member=name):
                member = build(graph)
            self.hold(name, member, "scratch")
        return member

    @property
    def alias_slots(self) -> np.ndarray:
        return self._read("alias_slots", graph_alias_slots)

    @property
    def edge_set(self) -> "EdgeSet":
        return self._read("edge_set", EdgeSet.build)


@dataclass
class BatchSample:
    """One frontier-wide sampling decision.

    ``vertex[k]`` is the id (int64) of the neighbour walker ``k`` moves
    to, ``-1`` when nothing was admissible (the walk terminates early),
    or :data:`STALL` when this call left the walker undecided — a
    rejected proposal, made again by the next call.  ``stalled`` lists
    the :data:`STALL` positions and ``ended`` the ``-1`` positions, each
    ascending and the two disjoint, so no caller scans ``vertex`` for
    them; only :class:`ReservoirKernel` ever ends a walk.  Every kernel
    reads the neighbour itself — most hold it already when they decide —
    so the engine's superstep never touches ``col``.
    ``proposals``/``neighbor_reads`` count as the scalar
    :meth:`~repro.sampling.base.Sampler.draw`'s counters do, summed over
    walkers and over this call's proposals only.
    """

    vertex: np.ndarray
    proposals: int
    neighbor_reads: int
    stalled: np.ndarray = field(default_factory=lambda: NO_STALLS)
    ended: np.ndarray = field(default_factory=lambda: NO_STALLS)


def neighbor_at(graph: CSRGraph, current: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``col[row_ptr[current[k]] + index[k]]``: the neighbour at each
    walker's within-row ``index``."""
    return graph.col[graph.row_ptr[current] + index]


def flatten_frontier(
    graph: CSRGraph, current: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment arrays for a frontier's concatenated neighbor lists.

    Walker ``k`` owns ``counts[k]`` (its out-degree) consecutive flat
    entries.  Returns ``(segment, within, position)``: ``segment[j]`` is
    the walker of flat entry ``j``, ``within[j]`` its within-neighborhood
    index and ``position[j]`` its offset into the CSR column list: the
    gather behind the whole-row scan of :class:`ReservoirKernel`.
    """
    total = int(counts.sum())
    segment = np.repeat(np.arange(current.size), counts)
    starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    position = graph.row_ptr[current][segment] + within
    return segment, within, position


class VectorizedKernel(ABC):
    """A sampler that advances a whole frontier per call."""

    def prepare(self, graph: CSRGraph) -> None:
        """Ready this kernel for ``graph``: take what it samples from
        ``SamplerState.of(graph)``, shared and read-only (built there on
        the first read); kernels without prepared state take nothing."""

    @abstractmethod
    def sample(
        self,
        graph: CSRGraph,
        current: np.ndarray,
        previous: np.ndarray,
        admissible_type: np.ndarray | None,
        streams: QueryStreams,
        stream_idx: np.ndarray | None,
        degrees: np.ndarray,
    ) -> BatchSample:
        """Choose the next vertex of every walker in the frontier
        (:class:`BatchSample`: neighbour ids, ``-1`` = nothing admissible,
        listed in ``ended``; :data:`STALL` = undecided, ask again, listed
        in ``stalled``).  ``admissible_type[k]`` is
        the edge type walker ``k`` must take (MetaPath: it follows the
        walker's own hop count); ``None``: any edge, for every walker.

        One call is one round of draws per walker: a kernel never loops
        until a walker is decided — a walker it cannot decide yet it
        reports stalled, and the engine's next superstep asks again.
        ``current``/``previous`` are aligned int64 arrays (``previous`` is
        ``-1`` on a first hop); every ``current[k]`` must have out-degree
        >= 1 — the engine terminates dangling walkers before sampling.
        ``degrees[k]`` is that out-degree (int64): the superstep reads it
        once, to find the dangling, and hands it on, so no kernel reads
        ``graph.degrees()`` again.
        ``stream_idx[k]`` addresses walker ``k``'s substream; ``None``
        means stream ``k`` *is* walker ``k`` (the engines' compact
        frontier), which lets whole-frontier draws advance in place.
        """


class UniformKernel(VectorizedKernel):
    """Uniform neighbor choice (URW, PPR): one draw, one read per walker."""

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx, degrees):
        choice = streams.randints(degrees, stream_idx)
        return BatchSample(neighbor_at(graph, current, choice),
                           proposals=current.size, neighbor_reads=current.size)


class AliasKernel(VectorizedKernel):
    """Weighted O(1) choice via packed alias slots (DeepWalk): one
    :data:`ALIAS_SLOT` gather per hop decides and names the neighbour."""

    def __init__(self) -> None:
        self._slots: np.ndarray | None = None

    def prepare(self, graph: CSRGraph) -> None:
        self._slots = SamplerState.of(graph).alias_slots

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx, degrees):
        if self._slots is None:
            raise SamplingError("AliasKernel.prepare(graph) must be called before sampling")
        # The slot is drawn as QueryStreams.randints draws: no clamp.
        slot = streams.randints(degrees, stream_idx)
        u2 = streams.uniforms(stream_idx)
        slot += graph.row_ptr[current]
        entry = self._slots[slot]
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

    def __init__(self, sampler: RejectionSampler) -> None:
        # Wrap the (already validated) scalar sampler so the bias
        # derivation has one source of truth.
        self._edge_set: EdgeSet | None = None
        self._degrees: np.ndarray | None = None
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

    def prepare(self, graph: CSRGraph) -> None:
        self._edge_set = SamplerState.of(graph).edge_set
        # The modelled scan of each previous vertex's row reads its degree.
        self._degrees = graph.degrees()

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx, degrees):
        if self._edge_set is None:
            raise SamplingError("RejectionKernel.prepare(graph) must be called before sampling")
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
            # Rejection (Node2Vec) walks are untyped: no admissible types.
            batch = self.sample(graph, current[rest], previous[rest], None,
                                streams, sub_streams(stream_idx, rest), degrees[rest])
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
        reads = u.size + int(self._degrees[previous[not_return]].sum())
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

    def __init__(self, sampler: ReservoirSampler) -> None:
        # Wrap the (already validated) scalar sampler: its p/q are the
        # Node2Vec biases, if it has them.
        self._sampler = sampler
        self._edge_set: EdgeSet | None = None

    def prepare(self, graph: CSRGraph) -> None:
        if self._sampler.second_order:
            self._edge_set = SamplerState.of(graph).edge_set

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx, degrees):
        if admissible_type is not None and graph.edge_types is None:
            raise SamplingError("admissible_type given but the graph has no edge types")
        counts = degrees
        segment, within, position = flatten_frontier(graph, current, counts)
        if graph.is_weighted:
            weight = graph.weights[position]
        else:
            weight = np.ones(position.size, dtype=np.float64)

        sampler = self._sampler
        if sampler.second_order:
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
                    1.0 / sampler.p,
                    np.where(adjacent, 1.0, 1.0 / sampler.q),
                )

        eligible = weight > 0
        if admissible_type is not None:
            eligible &= graph.edge_types[position] == admissible_type[segment]
        u = streams.element_uniforms(stream_idx, counts, segment=segment, within=within)
        # Same u == 0 guard as the scalar sampler: keep keys positive so
        # ordering against the -1 sentinel stays correct.
        u = np.where(u == 0.0, 5e-324, u)
        with np.errstate(divide="ignore"):
            key = np.where(eligible, u ** (1.0 / weight), -1.0)
        # Ties go to the later entry, as a stable sort of the keys would.
        best = segment_last_argmax(key, np.cumsum(counts) - counts, segment)
        vertex = graph.col[position[best]]
        ended = np.flatnonzero(key[best] < -0.5)
        vertex[ended] = -1
        return BatchSample(vertex, proposals=current.size, neighbor_reads=position.size,
                           ended=ended)


def make_kernel(sampler: Sampler) -> VectorizedKernel:
    """Map a scalar sampler onto its vectorized kernel.

    The factory keys on sampler type so a :class:`~repro.walks.base.WalkSpec`
    needs no changes to run on the batch engine.
    """
    if isinstance(sampler, UniformSampler):
        return UniformKernel()
    if isinstance(sampler, AliasSampler):
        return AliasKernel()
    if isinstance(sampler, RejectionSampler):
        return RejectionKernel(sampler)
    if isinstance(sampler, ReservoirSampler):
        return ReservoirKernel(sampler)
    raise SamplingError(
        f"no vectorized kernel for sampler {sampler.name!r}; use the reference engine"
    )
