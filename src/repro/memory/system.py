"""Multi-channel memory system with split row/column channel groups.

RidgeWalker assigns each asynchronous pipeline two dedicated channels —
one for Row Access and one for Column Access — "which avoids inter-channel
arbitration and contention" (Section IV-A).  The system object owns all
channels, splits them into the two groups, and hands each engine the
channel objects it binds at wiring, keyed by (group, channel index).
"""

from __future__ import annotations

from enum import Enum

from repro.errors import MemoryModelError
from repro.memory.channel import MemoryChannel
from repro.memory.spec import MemorySpec


class ChannelGroup(Enum):
    """Which CSR array a channel serves."""

    ROW = "row"
    COLUMN = "column"


class MemorySystem:
    """All memory channels of one device, split into row/column groups of
    ``num_channels`` each (one of each per pipeline)."""

    def __init__(self, spec: MemorySpec, core_mhz: float, num_channels: int) -> None:
        if num_channels < 1:
            raise MemoryModelError("need at least one channel per group")
        if 2 * num_channels > spec.num_channels:
            raise MemoryModelError(
                f"layout needs {2 * num_channels} channels but {spec.name} exposes "
                f"{spec.num_channels}"
            )
        self.spec = spec
        # Every channel adds its accepted requests to this one cell.
        self._accepted = [0]
        self._row_channels = [
            MemoryChannel(spec, core_mhz, channel_id=i, accepted=self._accepted)
            for i in range(num_channels)
        ]
        self._column_channels = [
            MemoryChannel(
                spec, core_mhz, channel_id=num_channels + i, accepted=self._accepted
            )
            for i in range(num_channels)
        ]
        self._channels = [*self._row_channels, *self._column_channels]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def channel(self, group: ChannelGroup, index: int) -> MemoryChannel:
        """The channel at ``index`` within ``group``."""
        channels = self._row_channels if group is ChannelGroup.ROW else self._column_channels
        if not 0 <= index < len(channels):
            raise MemoryModelError(
                f"{group.value} channel {index} out of range (have {len(channels)})"
            )
        return channels[index]

    def all_channels(self) -> list[MemoryChannel]:
        """Every channel, row group first."""
        return list(self._channels)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance every channel one core cycle."""
        for channel in self._channels:
            channel.tick()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def total_words_transferred(self) -> int:
        """Words moved across all channels (bandwidth numerator)."""
        return sum(c.stats.words_transferred for c in self.all_channels())

    def total_requests(self) -> int:
        """Random transactions accepted across all channels (a running
        count kept by the channels, however a request reached them)."""
        return self._accepted[0]
