"""Memory substrate: channel timing models, layouts, device specs."""

from repro.memory.channel import ChannelStats, MemoryChannel, MemoryRequest
from repro.memory.layout import GraphMemoryLayout
from repro.memory.spec import (
    DDR4_U250,
    DDR4_VCK5000,
    HBM2_U50,
    HBM2_U280,
    HBM2_U55C,
    RANDOM_TX_BYTES,
    MemorySpec,
)
from repro.memory.system import ChannelGroup, MemorySystem

__all__ = [
    "ChannelGroup",
    "ChannelStats",
    "DDR4_U250",
    "DDR4_VCK5000",
    "GraphMemoryLayout",
    "HBM2_U50",
    "HBM2_U280",
    "HBM2_U55C",
    "MemoryChannel",
    "MemoryRequest",
    "MemorySpec",
    "MemorySystem",
    "RANDOM_TX_BYTES",
]
