"""Deterministic 64-bit generators used by the simulated hardware.

Hardware RNGs are bit-exact state machines, so the simulator uses explicit
integer implementations rather than numpy's Generator:

* :func:`splitmix64_next` / :class:`SplitMix64` — the standard seeding
  sequence (Steele et al.); used to expand one seed into many.
* :class:`XorShift128` — Marsaglia's xorshift128, the cheap-on-FPGA
  shift/xor core ThundeRiNG builds its output scrambler from.

All arithmetic is modulo 2**64 with explicit masking.
"""

from __future__ import annotations

from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns ``(new_state, output)``."""
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


class SplitMix64:
    """Streamable splitmix64, mainly used to derive sub-seeds."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Next 64-bit output."""
        self._state, value = splitmix64_next(self._state)
        return value


@dataclass
class XorShift128:
    """Marsaglia xorshift128 with 32-bit lanes.

    Period ``2**128 - 1``; the all-zero state is forbidden, so seeding
    falls back to splitmix64 expansion which cannot produce it (we re-draw
    in the astronomically unlikely case).
    """

    x: int
    y: int
    z: int
    w: int

    @classmethod
    def from_seed(cls, seed: int) -> "XorShift128":
        """Seed the four 32-bit lanes from one 64-bit seed."""
        mixer = SplitMix64(seed)
        while True:
            a = mixer.next_u64()
            b = mixer.next_u64()
            lanes = (
                a & _MASK32,
                (a >> 32) & _MASK32,
                b & _MASK32,
                (b >> 32) & _MASK32,
            )
            if any(lanes):
                return cls(*lanes)

    def next_u32(self) -> int:
        """Next 32-bit output."""
        t = (self.x ^ ((self.x << 11) & _MASK32)) & _MASK32
        self.x, self.y, self.z = self.y, self.z, self.w
        self.w = (self.w ^ (self.w >> 19) ^ (t ^ (t >> 8))) & _MASK32
        return self.w

    def next_u64(self) -> int:
        """Next 64-bit output (two 32-bit draws)."""
        high = self.next_u32()
        return (high << 32) | self.next_u32()

    def uniform(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 usable bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))
