"""Multi-channel memory system with split row/column channel groups.

RidgeWalker assigns each asynchronous pipeline two dedicated channels —
one for Row Access and one for Column Access — "which avoids inter-channel
arbitration and contention" (Section IV-A).  The system object owns all
channels, splits them into the two groups, and gives engines a uniform
submit/collect interface keyed by (group, channel index).
"""

from __future__ import annotations

from enum import Enum

from repro.errors import MemoryModelError
from repro.memory.channel import MemoryChannel, MemoryRequest
from repro.memory.spec import MemorySpec


class ChannelGroup(Enum):
    """Which CSR array a channel serves."""

    ROW = "row"
    COLUMN = "column"


class MemorySystem:
    """All memory channels of one device, split into row/column groups."""

    def __init__(
        self,
        spec: MemorySpec,
        core_mhz: float,
        num_row_channels: int,
        num_column_channels: int,
    ) -> None:
        total = num_row_channels + num_column_channels
        if total > spec.num_channels:
            raise MemoryModelError(
                f"layout needs {total} channels but {spec.name} exposes "
                f"{spec.num_channels}"
            )
        if num_row_channels < 1 or num_column_channels < 1:
            raise MemoryModelError("need at least one channel per group")
        self.spec = spec
        self.core_mhz = core_mhz
        # Every channel adds its accepted requests to this one cell.
        self._accepted = [0]
        self._row_channels = [
            MemoryChannel(spec, core_mhz, channel_id=i, accepted=self._accepted)
            for i in range(num_row_channels)
        ]
        self._column_channels = [
            MemoryChannel(
                spec, core_mhz, channel_id=num_row_channels + i, accepted=self._accepted
            )
            for i in range(num_column_channels)
        ]
        self._channels = [*self._row_channels, *self._column_channels]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def channel(self, group: ChannelGroup, index: int) -> MemoryChannel:
        """The channel at ``index`` within ``group``."""
        channels = self._group(group)
        if not 0 <= index < len(channels):
            raise MemoryModelError(
                f"{group.value} channel {index} out of range (have {len(channels)})"
            )
        return channels[index]

    def submit(self, group: ChannelGroup, index: int, request: MemoryRequest) -> None:
        """Submit a request to one channel."""
        self.channel(group, index).submit(request)

    def can_accept(self, group: ChannelGroup, index: int) -> bool:
        """Whether the channel can take another request this cycle."""
        return self.channel(group, index).can_accept()

    @property
    def num_row_channels(self) -> int:
        return len(self._row_channels)

    @property
    def num_column_channels(self) -> int:
        return len(self._column_channels)

    def all_channels(self) -> list[MemoryChannel]:
        """Every channel, row group first."""
        return list(self._channels)

    def _group(self, group: ChannelGroup) -> list[MemoryChannel]:
        return self._row_channels if group is ChannelGroup.ROW else self._column_channels

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance every channel one core cycle."""
        for channel in self._channels:
            channel.tick()

    def idle(self) -> bool:
        """Whether no channel holds pending or in-flight work."""
        return all(c.drain_complete() for c in self.all_channels())

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

    def effective_bandwidth_gbs(self, cycles: int) -> float:
        """Achieved bandwidth over ``cycles`` core cycles, in GB/s.

        ``B_measured`` in the paper's utilization metric: bytes moved
        divided by elapsed time at the core clock.
        """
        if cycles <= 0:
            raise MemoryModelError("cycles must be positive")
        seconds = cycles / (self.core_mhz * 1e6)
        return self.total_words_transferred() * 8 / seconds / 1e9

    def utilization(self, cycles: int) -> float:
        """``B_measured / B_peak`` against the Equation (1) peak of the
        channels actually provisioned (not the full stack)."""
        provisioned = len(self.all_channels())
        peak = self.spec.random_tx_rate_mhz * 1e6 * provisioned * 8 / 1e9
        return self.effective_bandwidth_gbs(cycles) / peak
