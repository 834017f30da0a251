"""Memory technology specifications and the paper's Equation (1).

The paper derives the peak 64-bit *random-access* bandwidth of a memory
stack as::

    B_peak = f_mem / t_RRD * N_chn * 64bit/8          (Equation 1)

because every GRW step lands on a fresh DRAM row, so the row-to-row
activation delay ``t_RRD`` — not the pin bandwidth — caps random
transaction rate.  Each channel therefore sustains ``f_mem / t_RRD``
random 64-bit transactions per second, far below its sequential rate.

Specs below are calibrated against the paper's own numbers:

* Section IV-A: one HBM2 channel sustains ~284 MT/s of 64-bit random
  transactions on the U55C-class stack (450 MHz @ ``t_RRD`` ~= 3 memory
  cycles gives 150 MT/s *effective* once bank-group constraints are
  folded in; we keep the effective value because Table III's measured
  throughput (2098 MStep/s at 88% utilization over 16 pipelines) implies
  ~150 MT/s per channel: 2098e6 steps * 2 tx / 32 channels / 0.88).
* Table III row 2 gives the sequential bandwidths used for burst costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryModelError

#: Word size of one random transaction, in bytes (64-bit per Equation 1).
RANDOM_TX_BYTES = 8


@dataclass(frozen=True)
class MemorySpec:
    """Timing/bandwidth parameters of one memory technology instance.

    Parameters
    ----------
    name:
        Technology label (``HBM2-u55c`` etc.).
    num_channels:
        Independent pseudo-channels exposed to the fabric.
    random_tx_rate_mhz:
        Per-channel random 64-bit transactions per microsecond
        (``f_mem / t_RRD`` in Equation 1 terms).
    sequential_gbs:
        Aggregate sequential bandwidth (Table III row 2) — used to price
        burst reads (alias tables, reservoir scans) relative to random
        transactions.
    round_trip_cycles:
        Request-to-response latency in *core* clock cycles (the paper's
        metadata queue is sized for ~100 cycles at 320 MHz).
    max_outstanding:
        Outstanding transactions one channel accepts (AXI capability;
        the paper's engine issues up to 128).
    """

    name: str
    num_channels: int
    random_tx_rate_mhz: float
    sequential_gbs: float
    round_trip_cycles: int = 100
    max_outstanding: int = 64

    def __post_init__(self) -> None:
        if self.num_channels < 1:
            raise MemoryModelError(f"num_channels must be >= 1, got {self.num_channels}")
        if self.random_tx_rate_mhz <= 0:
            raise MemoryModelError("random_tx_rate_mhz must be positive")
        if self.sequential_gbs <= 0:
            raise MemoryModelError("sequential_gbs must be positive")
        if self.round_trip_cycles < 1:
            raise MemoryModelError("round_trip_cycles must be >= 1")
        if self.max_outstanding < 1:
            raise MemoryModelError("max_outstanding must be >= 1")

    def peak_random_bandwidth_gbs(self) -> float:
        """Equation (1): peak random-access bandwidth in GB/s."""
        return self.random_tx_rate_mhz * 1e6 * self.num_channels * RANDOM_TX_BYTES / 1e9

    def channel_tx_per_core_cycle(self, core_mhz: float) -> float:
        """Random transactions one channel can issue per core clock cycle."""
        if core_mhz <= 0:
            raise MemoryModelError("core_mhz must be positive")
        return self.random_tx_rate_mhz / core_mhz

    def sequential_words_per_tx(self) -> float:
        """How many extra sequential 64-bit words fit in one random-tx slot.

        A burst of ``k`` words costs ``1 + (k - 1) / sequential_words_per_tx()``
        token units on the channel: the first word pays the row activation,
        subsequent words stream at the sequential rate.
        """
        seq_words_per_channel = (
            self.sequential_gbs * 1e9 / self.num_channels / RANDOM_TX_BYTES
        )
        return seq_words_per_channel / (self.random_tx_rate_mhz * 1e6)

    def burst_cost_tx(self, words: int) -> float:
        """Channel token cost of a burst of ``words`` sequential words."""
        if words < 1:
            raise MemoryModelError(f"burst must cover >= 1 word, got {words}")
        return 1.0 + (words - 1) / self.sequential_words_per_tx()


# ---------------------------------------------------------------------------
# Technology catalog (calibrated to Table III)
# ---------------------------------------------------------------------------

#: U55C-class HBM2: 32 channels, 460 GB/s sequential.
HBM2_U55C = MemorySpec(
    name="HBM2-u55c",
    num_channels=32,
    random_tx_rate_mhz=150.0,
    sequential_gbs=460.0,
    round_trip_cycles=100,
    max_outstanding=64,
)

#: U50-class HBM2: same channel count, lower clock (316 GB/s sequential).
HBM2_U50 = MemorySpec(
    name="HBM2-u50",
    num_channels=32,
    random_tx_rate_mhz=103.0,
    sequential_gbs=316.0,
    round_trip_cycles=100,
    max_outstanding=64,
)

#: U280-class HBM2 (Su et al. baseline board): 32 channels, 460 GB/s.
HBM2_U280 = MemorySpec(
    name="HBM2-u280",
    num_channels=32,
    random_tx_rate_mhz=140.0,
    sequential_gbs=460.0,
    round_trip_cycles=100,
    max_outstanding=64,
)

#: U250-class DDR4: 4 channels, 77 GB/s sequential.
DDR4_U250 = MemorySpec(
    name="DDR4-u250",
    num_channels=4,
    random_tx_rate_mhz=160.0,
    sequential_gbs=77.0,
    round_trip_cycles=80,
    max_outstanding=32,
)

#: VCK5000 DDR4 behind the hardened NoC: 4 channels, 102 GB/s sequential,
#: NoC adds latency and trims the random rate (interleaving disabled, as
#: Section VIII-E describes).
DDR4_VCK5000 = MemorySpec(
    name="DDR4-vck5000-noc",
    num_channels=4,
    random_tx_rate_mhz=116.0,
    sequential_gbs=102.0,
    round_trip_cycles=120,
    max_outstanding=32,
)

#: Hypothetical next-generation HBM3 stack: 64 pseudo-channels at a
#: higher per-channel random rate.  Section VIII-F argues the scheduler
#: scales "beyond 32 HBM channels"; this spec backs the ``micro-scaling``
#: experiment's 32-pipeline point — it is a projection, not a shipping
#: device.
HBM3_PROJECTED = MemorySpec(
    name="HBM3-projected",
    num_channels=64,
    random_tx_rate_mhz=190.0,
    sequential_gbs=1200.0,
    round_trip_cycles=110,
    max_outstanding=96,
)
