"""RidgeWalker accelerator configuration, including ablation switches.

The defaults reproduce the paper's U55C deployment: 16 asynchronous
pipelines (32 HBM channels / 2 per pipeline), 320 MHz core clock, up to
128 outstanding requests per access engine, and per-pipeline scheduler
FIFOs of depth ``1 + 4*log2(N)`` from Theorem VI.1 with ``mu = 1`` and
``C = 4*log2(N)`` (Section VI-D).

Nine fields, each read when the machine is wired: the device
(``num_pipelines``, ``core_mhz``, ``memory``), the three Figure 11
switches below, the access engines' ``engine_outstanding`` and two
buffer depths (``pipeline_fifo_depth``, ``recirculation_depth``).  The
admission limit is derived from them
(:meth:`RidgeWalkerConfig.safe_inflight_limit`).

The ablation switches mirror Figure 11's breakdown exactly:

* ``dynamic_scheduling=False`` statically binds queries to pipelines and
  (optionally) runs bulk-synchronous batches with ghost slots — the
  "Baseline" and "Baseline with Async Pipeline" bars;
* ``async_memory=False`` caps each access engine at
  ``SYNC_OUTSTANDING`` outstanding requests — the "Baseline" and
  "Baseline with Zero-Bubble Scheduler" bars;
* ``bulk_synchronous=True`` (static schedules only) keeps a terminated
  query's slots as ghosts until its batch drains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import SchedulerError
from repro.memory.spec import HBM2_U55C, MemorySpec

#: Outstanding window when ``async_memory=False``: a conventional HLS
#: dataflow pipeline with a standard AXI interface still keeps a handful
#: of reads in flight, it just cannot decouple issue from response
#: handling the way the asynchronous engine does.
SYNC_OUTSTANDING = 4


def theorem_fifo_depth(num_pipelines: int) -> int:
    """Theorem VI.1 per-pipeline queue depth.

    Total depth ``D = N + mu*C*N`` with feedback delay ``C = 4*log2(N)``
    (2*log2(N) through the butterfly balancer plus the round trip to the
    pipeline, Section VI-D).  Each pipeline retires one task per cycle,
    so ``mu = 1`` and the depth is ``1 + 4*log2(N)`` per pipeline.  This
    is the paper's ``C``; an uncongested task takes ``6*log2(N) + 1``
    cycles through the modelled balancer (see ``core.interconnect``).
    """
    if num_pipelines < 1:
        raise SchedulerError(f"num_pipelines must be >= 1, got {num_pipelines}")
    if num_pipelines == 1:
        return 1
    return 1 + 4 * math.ceil(math.log2(num_pipelines))


@dataclass(frozen=True)
class RidgeWalkerConfig:
    """Full build-time configuration of the simulated accelerator."""

    #: Number of asynchronous pipelines (each uses one row + one column
    #: channel; 16 on U55C-class HBM devices, 2 on DDR4 devices).
    num_pipelines: int = 4

    #: Core clock in MHz (Table IV: 320 MHz for every kernel).
    core_mhz: float = 320.0

    #: Memory technology backing the channels.
    memory: MemorySpec = field(default=HBM2_U55C)

    #: Zero-bubble scheduler (True) vs static query-to-pipeline binding.
    dynamic_scheduling: bool = True

    #: Asynchronous access engine with many outstanding requests (True)
    #: vs a ``SYNC_OUTSTANDING``-deep blocking window.
    async_memory: bool = True

    #: Outstanding-request capacity of each access engine when async
    #: (paper: "up to 128 outstanding, non-blocking requests").
    engine_outstanding: int = 128

    #: Bulk-synchronous batching for static schedules: terminated queries
    #: keep their slots as ghosts until the batch's walk length drains —
    #: the LightRW/FastRW behaviour the breakdown baseline copies.
    bulk_synchronous: bool = False

    #: Per-pipeline scheduler FIFO depth; ``None`` = Theorem VI.1 value.
    pipeline_fifo_depth: int | None = None

    #: Feedback FIFO depth between Column Access and the scheduler.  The
    #: paper backs deep buffers with BRAM (one block holds 512 entries,
    #: Section VIII-F); the default is sized so the admission limit below
    #: covers the bandwidth-delay product of the task loop (~16 pipelines
    #: x ~130-cycle loop at one step/cycle each).
    recirculation_depth: int = 192

    def __post_init__(self) -> None:
        if self.num_pipelines < 1:
            raise SchedulerError(f"num_pipelines must be >= 1, got {self.num_pipelines}")
        if self.num_pipelines & (self.num_pipelines - 1):
            raise SchedulerError(
                f"num_pipelines must be a power of two for the butterfly "
                f"interconnect, got {self.num_pipelines}"
            )
        if self.core_mhz <= 0:
            raise SchedulerError("core_mhz must be positive")
        if self.engine_outstanding < 1:
            raise SchedulerError("engine_outstanding must be >= 1")
        if self.recirculation_depth < 2:
            raise SchedulerError("recirculation_depth must be >= 2")
        if self.pipeline_fifo_depth is not None and self.pipeline_fifo_depth < 1:
            raise SchedulerError("pipeline_fifo_depth must be >= 1")
        if self.memory.num_channels < 2 * self.num_pipelines:
            raise SchedulerError(
                f"{self.num_pipelines} pipelines need "
                f"{2 * self.num_pipelines} channels but {self.memory.name} "
                f"has {self.memory.num_channels}"
            )
        if self.bulk_synchronous and self.dynamic_scheduling:
            raise SchedulerError(
                "bulk_synchronous batching only applies to static scheduling"
            )

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    @property
    def effective_fifo_depth(self) -> int:
        """Per-pipeline scheduler FIFO depth actually used."""
        if self.pipeline_fifo_depth is not None:
            return self.pipeline_fifo_depth
        return theorem_fifo_depth(self.num_pipelines)

    @property
    def effective_outstanding(self) -> int:
        """Outstanding requests per engine under the async switch."""
        return self.engine_outstanding if self.async_memory else SYNC_OUTSTANDING

    def safe_inflight_limit(self) -> int:
        """Queries that can be in flight without wedging the task loop.

        This is the Query Loader's admission control.  Every query owns
        exactly one task, and the task loop is a cycle of bounded FIFOs,
        so gridlock (every buffer full, every module mutually blocked) is
        possible if admission is unbounded.  Keeping in-flight queries
        below the total recirculation capacity guarantees at least one
        recirculation FIFO always has space; that pipeline can always
        retire work, and the balancer reroutes the backlog into it — so
        the loop can never close into a deadlock cycle.
        """
        recirc_capacity = self.num_pipelines * self.recirculation_depth
        return max(self.num_pipelines, int(recirc_capacity * 0.8))

    def peak_random_tx_per_cycle(self) -> float:
        """Aggregate random transactions per core cycle of the channels
        this configuration provisions (2 per pipeline)."""
        per_channel = self.memory.channel_tx_per_core_cycle(self.core_mhz)
        return per_channel * 2 * self.num_pipelines
