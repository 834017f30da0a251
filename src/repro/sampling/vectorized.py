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
* a sorted edge-key array (``src * |V| + dst``) that turns the Node2Vec
  adjacency probe into one batched ``np.searchsorted`` call.
* the same cost-counter contract as the scalar samplers: proposals and
  neighbor reads are accounted identically (the rejection kernel still
  charges the honest ``O(deg(prev))`` probe cost per retry even though
  the lookup itself is a binary search).

Statistical equivalence with the scalar samplers is enforced by
chi-square tests in ``tests/walks/test_batch.py``; streams are *not*
bit-identical across engines, only identically distributed and
identically keyed per query.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SamplingError
from repro.graph.alias import AliasTable, build_alias_table
from repro.graph.csr import CSRGraph
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
    Equality with the scalar derivation is enforced by tests.
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
    if ids.size == 0:
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


def edges_exist(
    edge_keys: np.ndarray, num_vertices: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Vectorized ``graph.has_edge(src[k], dst[k])`` over aligned arrays."""
    if edge_keys.size == 0:
        return np.zeros(src.shape, dtype=bool)
    keys = src.astype(np.int64) * np.int64(num_vertices) + dst
    pos = np.searchsorted(edge_keys, keys)
    pos = np.minimum(pos, edge_keys.size - 1)
    return edge_keys[pos] == keys


class HubAdjacency:
    """Dense neighbor bitmaps for heavy rows: O(1) exact adjacency probes.

    The sorted-edge-key probe behind :func:`edges_exist` costs a
    ``log2(|E|)``-step binary search over a multi-megabyte array — and on
    skewed graphs most second-order probes ask about a *hub* row.  For
    rows above a degree threshold this structure stores the neighbor set
    as one dense bitmap (8 bytes per 64 vertices), so a probe is a
    two-gather bit test.  Exact membership, no false positives: callers
    may substitute it for :func:`edges_exist` wherever ``rank[src] >= 0``
    without changing a single decision.
    """

    def __init__(self, rank: np.ndarray, bits: np.ndarray) -> None:
        self.rank = rank
        self.bits = bits

    @classmethod
    def build(
        cls, graph: CSRGraph, min_degree: int, max_bytes: int
    ) -> "HubAdjacency | None":
        """Bitmap the heaviest rows of ``graph`` (None when disabled, no
        row qualifies, or not even one row fits the byte budget)."""
        if min_degree < 1 or max_bytes <= 0:
            return None
        degrees = graph.degrees()
        words = (graph.num_vertices + 63) // 64
        max_rows = int(max_bytes // (words * 8))
        if max_rows == 0:
            return None
        hubs = np.nonzero(degrees >= min_degree)[0]
        if hubs.size == 0:
            return None
        if hubs.size > max_rows:
            # Keep the heaviest rows — they absorb the most probes.
            order = np.argsort(degrees[hubs], kind="stable")[::-1][:max_rows]
            hubs = np.sort(hubs[order])
        rank = np.full(graph.num_vertices, -1, dtype=np.int64)
        rank[hubs] = np.arange(hubs.size)
        bits = np.zeros((hubs.size, words), dtype=np.uint64)
        for i, vertex in enumerate(hubs.tolist()):
            neighbors = graph.neighbors(vertex)
            np.bitwise_or.at(
                bits[i],
                neighbors >> 6,
                np.uint64(1) << (neighbors & 63).astype(np.uint64),
            )
        return cls(rank=rank, bits=bits)

    def probe_ranked(self, rank: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Membership test for sources already resolved to bitmap ranks."""
        word = self.bits[rank, dst >> 6]
        return (word >> (dst & 63).astype(np.uint64)) & np.uint64(1) != 0

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"hub_rank": self.rank, "hub_bits": self.bits}

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray]) -> "HubAdjacency | None":
        rank = arrays.get("hub_rank")
        bits = arrays.get("hub_bits")
        if rank is None or bits is None:
            return None
        return cls(rank=rank, bits=bits)


def hybrid_edges_exist(
    edge_keys: np.ndarray,
    hub_adjacency: HubAdjacency | None,
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
) -> np.ndarray:
    """:func:`edges_exist` with bitmap-covered sources fast-pathed."""
    if hub_adjacency is None:
        return edges_exist(edge_keys, num_vertices, src, dst)
    rank = hub_adjacency.rank[src]
    covered = rank >= 0
    if not covered.any():
        return edges_exist(edge_keys, num_vertices, src, dst)
    out = np.empty(src.shape, dtype=bool)
    out[covered] = hub_adjacency.probe_ranked(rank[covered], dst[covered])
    uncovered = ~covered
    if uncovered.any():
        out[uncovered] = edges_exist(
            edge_keys, num_vertices, src[uncovered], dst[uncovered]
        )
    return out


@dataclass
class BatchSample:
    """One frontier-wide sampling decision.

    ``choice[k]`` is the within-neighborhood index walker ``k`` takes, or
    ``-1`` when nothing was admissible (the walk terminates early).
    ``proposals``/``neighbor_reads`` follow the same accounting contract
    as :class:`~repro.sampling.base.SampleOutcome`, summed over walkers.
    """

    choice: np.ndarray
    proposals: int
    neighbor_reads: int


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
        """Choose a neighbor index for every walker in the frontier.

        ``current``/``previous`` are aligned int64 arrays (``previous`` is
        ``-1`` on a first hop); every ``current[k]`` must have out-degree
        >= 1 — the engine terminates dangling walkers before sampling.
        ``stream_idx[k]`` addresses walker ``k``'s substream; ``None``
        means stream ``k`` *is* walker ``k`` (the engines' compact
        frontier), which lets whole-frontier draws advance in place.
        """


class UniformKernel(VectorizedKernel):
    """Uniform neighbor choice (URW, PPR): one draw, one read per walker."""

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        degrees = graph.degrees()[current]
        choice = streams.randints(degrees, stream_idx)
        return BatchSample(choice, proposals=current.size, neighbor_reads=current.size)


class AliasKernel(VectorizedKernel):
    """Weighted O(1) choice via flat alias tables (DeepWalk)."""

    def __init__(self) -> None:
        self._table: AliasTable | None = None

    def prepare(self, graph: CSRGraph) -> None:
        self._table = build_alias_table(graph)

    def state_arrays(self) -> dict[str, np.ndarray]:
        if self._table is None:
            raise SamplingError("AliasKernel.prepare(graph) must run before exporting state")
        return {"alias_prob": self._table.prob, "alias_index": self._table.alias}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        self._table = AliasTable(prob=arrays["alias_prob"], alias=arrays["alias_index"])

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        if self._table is None:
            raise SamplingError("AliasKernel.prepare(graph) must be called before sampling")
        degrees = graph.degrees()[current]
        u1 = streams.uniforms(stream_idx)
        u2 = streams.uniforms(stream_idx)
        slot = np.minimum((u1 * degrees).astype(np.int64), degrees - 1)
        position = graph.row_ptr[current] + slot
        choice = np.where(u2 < self._table.prob[position], slot, self._table.alias[position])
        # Same accounting as AliasSampler: alias slot + chosen neighbor.
        return BatchSample(choice, proposals=current.size, neighbor_reads=2 * current.size)


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
        return BatchSample(choice, proposals=current.size, neighbor_reads=reads)


class RejectionKernel(VectorizedKernel):
    """Node2Vec rejection sampling with masked retry rounds.

    Every pending walker proposes a uniform neighbor per round; accepted
    walkers leave the frontier, rejected ones retry next round.  First
    hops (no previous vertex) are degenerate-uniform and accepted
    outright — see the matching fix in
    :class:`~repro.sampling.rejection.RejectionSampler`.
    """

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
        self._edge_keys: np.ndarray | None = None
        #: Optional bitmap accelerator for hub-row adjacency probes; the
        #: hybrid layer attaches one when its cost model pays for the
        #: build.  Purely a speed structure — decisions are identical
        #: with or without it.
        self._hub_adjacency: HubAdjacency | None = None

    @property
    def p(self) -> float:
        return self._sampler.p

    @property
    def q(self) -> float:
        return self._sampler.q

    def prepare(self, graph: CSRGraph) -> None:
        self._edge_keys = build_edge_keys(graph)

    def attach_hub_adjacency(self, hub_adjacency: HubAdjacency | None) -> None:
        self._hub_adjacency = hub_adjacency

    def state_arrays(self) -> dict[str, np.ndarray]:
        if self._edge_keys is None:
            raise SamplingError("RejectionKernel.prepare(graph) must run before exporting state")
        arrays = {"edge_keys": self._edge_keys}
        if self._hub_adjacency is not None:
            arrays.update(self._hub_adjacency.state_arrays())
        return arrays

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        self._edge_keys = arrays["edge_keys"]
        self._hub_adjacency = HubAdjacency.from_state(arrays)

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        if self._edge_keys is None:
            raise SamplingError("RejectionKernel.prepare(graph) must be called before sampling")
        degrees = graph.degrees()[current]
        choice = np.full(current.size, -1, dtype=np.int64)
        proposals = 0
        reads = 0

        first_hop = previous < 0
        if first_hop.all():
            # A whole frontier on its first hop (every engine's step 0):
            # one degenerate-uniform draw each, no gather.
            choice = streams.randints(degrees, stream_idx)
            return BatchSample(choice, proposals=current.size, neighbor_reads=current.size)
        if first_hop.any():
            f = np.nonzero(first_hop)[0]
            choice[f] = streams.randints(degrees[f], sub_streams(stream_idx, f))
            proposals += f.size
            reads += f.size
            pending = np.nonzero(~first_hop)[0]
            pending_idx = sub_streams(stream_idx, pending)
        else:
            # Round one covers the frontier as given, so it draws through
            # ``stream_idx`` itself (in place when that is ``None``).
            pending = np.arange(current.size)
            pending_idx = stream_idx
        prev_degrees = graph.degrees()[np.maximum(previous, 0)]
        max_bias = self._sampler.max_bias
        explore_bias = self._sampler.explore_bias
        # The accept decision only consults adjacency when the drawn
        # uniform falls *between* the adjacent-class and explore-class
        # thresholds; outside that band both classes decide identically,
        # so the (dominant, searchsorted-backed) probe can be skipped.
        # Decisions — and stream consumption — are bit-identical to the
        # probe-everything formulation; only the lookup work shrinks.
        probe_lo = min(1.0, explore_bias) / max_bias
        probe_hi = max(1.0, explore_bias) / max_bias
        rounds = 0
        while pending.size:
            rounds += 1
            if rounds > _MAX_REJECTION_ROUNDS:
                raise SamplingError(
                    f"rejection sampling failed to accept after {_MAX_REJECTION_ROUNDS} "
                    f"rounds (p={self.p}, q={self.q})"
                )
            proposal = streams.randints(degrees[pending], pending_idx)
            candidate = graph.col[graph.row_ptr[current[pending]] + proposal]
            prev = previous[pending]
            is_return = candidate == prev
            u = streams.uniforms(pending_idx)
            undecided = ~is_return & (u >= probe_lo) & (u < probe_hi)
            # Treating every decided non-return candidate as explore-class
            # yields the same accept verdict: below the band both classes
            # accept, above it both reject.
            adjacent = np.zeros(pending.size, dtype=bool)
            if undecided.any():
                adjacent[undecided] = hybrid_edges_exist(
                    self._edge_keys, self._hub_adjacency, graph.num_vertices,
                    prev[undecided], candidate[undecided],
                )
            bias = np.where(
                is_return,
                self._sampler.return_bias,
                np.where(adjacent, 1.0, explore_bias),
            )
            proposals += pending.size
            # One read for the proposal itself, plus the honest O(deg(prev))
            # adjacency-probe cost whenever the candidate is not the return
            # edge — identical to the scalar sampler's accounting, even
            # though the lookup here is a (lazily skipped) binary search
            # over edge keys.
            reads += pending.size + int(prev_degrees[pending[~is_return]].sum())
            accept = u < bias / max_bias
            accepted = pending[accept]
            choice[accepted] = proposal[accept]
            pending = pending[~accept]
            pending_idx = sub_streams(stream_idx, pending)
        return BatchSample(choice, proposals=proposals, neighbor_reads=reads)


class ReservoirKernel(VectorizedKernel):
    """Single-pass weighted reservoir choice over flattened frontiers.

    Covers weighted first-order walks, weighted Node2Vec (``p``/``q``
    biases) and MetaPath (edge-type admissibility): the frontier's
    neighbor lists are flattened into one segment array, exponential-race
    keys ``u**(1/w)`` are drawn per edge, and a segmented argmax picks
    each walker's winner.  A walker whose segment has no admissible entry
    gets ``-1`` (early termination), mirroring the scalar sampler.
    """

    def __init__(self, sampler: ReservoirSampler | None = None, *,
                 p: float | None = None, q: float | None = None) -> None:
        # Wrap the (already validated) scalar sampler; p/q kwargs are a
        # convenience that constructs one.
        if sampler is None:
            sampler = ReservoirSampler(p=p, q=q)
        self._sampler = sampler
        self._edge_keys: np.ndarray | None = None

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
            self._edge_keys = build_edge_keys(graph)

    def state_arrays(self) -> dict[str, np.ndarray]:
        if not self.second_order:
            return {}
        if self._edge_keys is None:
            raise SamplingError("ReservoirKernel.prepare(graph) must run before exporting state")
        return {"edge_keys": self._edge_keys}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        if self.second_order:
            self._edge_keys = arrays["edge_keys"]

    def sample(self, graph, current, previous, admissible_type, streams, stream_idx):
        counts, segment, within, position = flatten_frontier(graph, current)
        total = int(counts.sum())

        if graph.is_weighted:
            weight = graph.weights[position].astype(np.float64)
        else:
            weight = np.ones(total, dtype=np.float64)

        admissible = np.ones(total, dtype=bool)
        if admissible_type is not None:
            if graph.edge_types is None:
                raise SamplingError("admissible_type given but the graph has no edge types")
            admissible = graph.edge_types[position] == admissible_type

        if self.second_order:
            if self._edge_keys is None:
                raise SamplingError(
                    "ReservoirKernel.prepare(graph) must be called before sampling"
                )
            prev = previous[segment]
            has_prev = prev >= 0
            candidate = graph.col[position]
            adjacent = edges_exist(
                self._edge_keys, graph.num_vertices, np.maximum(prev, 0), candidate
            )
            bias = np.where(
                candidate == prev,
                1.0 / self.p,
                np.where(adjacent, 1.0, 1.0 / self.q),
            )
            weight = weight * np.where(has_prev, bias, 1.0)

        u = streams.element_uniforms(stream_idx, counts, segment=segment, within=within)
        # Same u == 0 guard as the scalar sampler: keep keys positive so
        # ordering against the -1 sentinel stays correct.
        u = np.where(u == 0.0, 5e-324, u)
        with np.errstate(divide="ignore"):
            key = np.where(admissible & (weight > 0), u ** (1.0 / weight), -1.0)
        order = np.lexsort((key, segment))
        best = order[np.cumsum(counts) - 1]
        choice = np.where(key[best] > -0.5, within[best], np.int64(-1))
        return BatchSample(choice, proposals=current.size, neighbor_reads=total)


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
