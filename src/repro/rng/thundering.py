"""ThundeRiNG-style multi-stream random number generation.

RidgeWalker pairs every sampling module with ThundeRiNG (Tan et al.,
ICS'21), an FPGA generator that produces many *mutually independent*
streams from one shared core.  The construction simulated here follows
that paper's recipe:

1. a single shared **MCG/LCG root** sequence advanced once per cycle
   (cheap: one multiplier on the FPGA, one shared state);
2. a per-stream **decorrelator**: each stream adds a distinct odd
   increment to the shared state, which yields distinct LCG sequences of
   the same multiplier (Lehmer-style stream splitting);
3. a per-stream **xorshift output scrambler** that breaks the linear
   lattice structure the LCG family shares.

A stream's scrambler is a :class:`~repro.rng.xorshift.XorShift128`
seeded the usual way; the ring keeps only its four 32-bit lanes, as one
list per stream, and steps them inline — a draw is two xorshift128
steps, the high word first, exactly as ``XorShift128.next_u64``.

A :class:`RingRandomSource` binds one stream's registers and steps them
itself, so a sampler's uniform costs no call into the ring.

The result is one 64-bit uniform per stream per root step, matching the
hardware's one-sample-per-cycle-per-pipeline rate, with no per-stream
multiplier (that is ThundeRiNG's resource win — captured in
:mod:`repro.resources.model`).

This avoids FastRW's design of pre-generating random numbers on the CPU
and streaming them through HBM, which the paper shows steals graph
bandwidth (Figure 8a discussion).
"""

from __future__ import annotations

from repro.errors import SamplingError
from repro.rng.xorshift import SplitMix64, XorShift128

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Knuth's MMIX LCG multiplier; one shared multiplier serves all streams.
_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407


class ThunderRing:
    """A bank of decorrelated uniform random streams.

    Parameters
    ----------
    num_streams:
        Number of independent streams (one per sampling module in the
        accelerator).
    seed:
        Root seed; every derived quantity is deterministic in it.
    """

    def __init__(self, num_streams: int, seed: int = 0) -> None:
        if num_streams < 1:
            raise SamplingError(f"num_streams must be >= 1, got {num_streams}")
        self._num_streams = num_streams
        mixer = SplitMix64(seed)
        # The shared root (step 1), a cell every stream handle binds.
        self._root = [mixer.next_u64()]
        # Distinct odd increments decorrelate the streams (step 2).
        self._increments = [(mixer.next_u64() | 1) for _ in range(num_streams)]
        # Per-stream xorshift scramblers (step 3): each stream's lanes
        # ``[x, y, z, w]``, keyed by stream id so that a bad id fails the
        # lookup itself instead of a range check on every draw.
        self._lanes: dict[int, list[int]] = {}
        for stream in range(num_streams):
            scrambler = XorShift128.from_seed(mixer.next_u64())
            self._lanes[stream] = [scrambler.x, scrambler.y, scrambler.z, scrambler.w]

    def next_u64(self, stream: int) -> int:
        """Next 64-bit uniform from ``stream`` (also advances the root).

        Hardware draws all streams each cycle; in simulation a stream is
        usually consumed on demand, so each draw advances the shared root
        once — the per-stream sequences remain decorrelated either way.
        """
        lanes = self._lanes.get(stream)
        if lanes is None:
            raise SamplingError(
                f"stream {stream} out of range for {self._num_streams} streams"
            )
        # Advance the shared root (step 1).
        cell = self._root
        cell[0] = root = (cell[0] * _LCG_MULTIPLIER + _LCG_INCREMENT) & _MASK64
        # Two xorshift128 steps; every term is below 2**32, so only the
        # left shifts need a mask.
        x, y, z, w = lanes
        t = x ^ ((x << 11) & _MASK32)
        high = w ^ (w >> 19) ^ t ^ (t >> 8)
        t = y ^ ((y << 11) & _MASK32)
        low = high ^ (high >> 19) ^ t ^ (t >> 8)
        lanes[0] = z
        lanes[1] = w
        lanes[2] = high
        lanes[3] = low
        return ((root + self._increments[stream]) & _MASK64) ^ ((high << 32) | low)


class RingRandomSource:
    """One :class:`ThunderRing` stream as a sampler's random source.

    A draw steps the registers bound here (a bad stream id fails here)
    exactly as :meth:`ThunderRing.next_u64` does, shared root included.
    """

    def __init__(self, ring: ThunderRing, stream: int) -> None:
        lanes = ring._lanes.get(stream)
        if lanes is None:
            raise SamplingError(f"stream {stream} out of range for {ring._num_streams} streams")
        self._ring = ring
        self._stream = stream
        self._root = ring._root
        self._lanes = lanes
        self._increment = ring._increments[stream]

    def uniform(self) -> float:
        """Uniform float in ``[0, 1)``: the top 53 bits of one draw."""
        cell = self._root
        cell[0] = root = (cell[0] * _LCG_MULTIPLIER + _LCG_INCREMENT) & _MASK64
        lanes = self._lanes
        x, y, z, w = lanes
        t = x ^ ((x << 11) & _MASK32)
        high = w ^ (w >> 19) ^ t ^ (t >> 8)
        t = y ^ ((y << 11) & _MASK32)
        low = high ^ (high >> 19) ^ t ^ (t >> 8)
        lanes[0] = z
        lanes[1] = w
        lanes[2] = high
        lanes[3] = low
        word = ((root + self._increment) & _MASK64) ^ ((high << 32) | low)
        return (word >> 11) * (1.0 / (1 << 53))

    def randint(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via 64-bit rejection.

        Rejection keeps the distribution exactly uniform, matching the
        hardware's modulo-free sampling datapath.
        """
        if bound <= 0:
            raise SamplingError(f"bound must be positive, got {bound}")
        # Zone rejection: accept draws below the largest multiple of bound.
        zone = (1 << 64) - ((1 << 64) % bound)
        while True:
            draw = self._ring.next_u64(self._stream)
            if draw < zone:
                return draw % bound


def stream_correlation(ring: ThunderRing, stream_a: int, stream_b: int, samples: int = 4096) -> float:
    """Empirical Pearson correlation between two streams' uniforms.

    Used by tests to check decorrelation: well-separated streams should
    show |r| within a few sigma of zero (sigma ~ 1/sqrt(samples)).
    """
    source_a = RingRandomSource(ring, stream_a)
    source_b = RingRandomSource(ring, stream_b)
    xs = []
    ys = []
    for _ in range(samples):
        xs.append(source_a.uniform())
        ys.append(source_b.uniform())
    n = float(samples)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / n
    var_x = sum((x - mean_x) ** 2 for x in xs) / n
    var_y = sum((y - mean_y) ** 2 for y in ys) / n
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5
