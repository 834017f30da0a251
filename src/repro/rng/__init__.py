"""RNG substrate: bit-exact generators for the simulated hardware."""

from repro.rng.thundering import RingRandomSource, ThunderRing, stream_correlation
from repro.rng.xorshift import SplitMix64, XorShift128, splitmix64_next

__all__ = [
    "RingRandomSource",
    "SplitMix64",
    "ThunderRing",
    "XorShift128",
    "splitmix64_next",
    "stream_correlation",
]
