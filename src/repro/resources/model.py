"""Analytical FPGA resource model — reproduces Table IV.

Composes per-component costs (calibrated against the paper's reported
utilization on the U55C) into whole-kernel estimates:

* two asynchronous access engines per pipeline (request/response proxies,
  BRAM metadata queue, transaction-id reorder buffer);
* one sampling unit per pipeline, whose cost depends on the Table I
  algorithm (alias units carry table-walk datapaths and extra DSPs for
  the second uniform; rejection units carry the adjacency-probe logic;
  reservoir units carry the weighted-key compare tree);
* one ThundeRiNG RNG pair per pipeline (DSP-based multiplier shared,
  per-stream scramblers in LUTs — the resource win of the shared-core
  construction);
* the zero-bubble scheduler: ``2*N*log2(N)`` dispatcher/merger units for
  the balancer plus the distribution tree and mergers (the paper reports
  the scheduler alone at ~1.8% of U55C LUTs, ~250 LUTs per unit);
* platform shell and HBM interconnect overhead.

The model is intentionally linear in the configuration — its purpose is
to reproduce the *ordering and rough magnitude* of Table IV and to let
ablations ask "what does doubling the pipelines cost", not to replace a
place-and-route report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ResourceModelError
from repro.resources.devices import ALVEO_U55C, DeviceSpec
from repro.walks.base import WalkSpec


@dataclass(frozen=True)
class ResourceVector:
    """LUT/REG/BRAM/DSP consumption of one component or design."""

    luts: int = 0
    registers: int = 0
    bram36: int = 0
    dsp: int = 0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            luts=self.luts + other.luts,
            registers=self.registers + other.registers,
            bram36=self.bram36 + other.bram36,
            dsp=self.dsp + other.dsp,
        )

    def scaled(self, factor: int) -> "ResourceVector":
        return ResourceVector(
            luts=self.luts * factor,
            registers=self.registers * factor,
            bram36=self.bram36 * factor,
            dsp=self.dsp * factor,
        )

    def utilization(self, device: DeviceSpec) -> dict[str, float]:
        """Fractions of the device consumed, per resource class."""
        return {
            "LUTs": self.luts / device.luts,
            "REGs": self.registers / device.registers,
            "BRAMs": self.bram36 / device.bram36,
            "DSPs": self.dsp / device.dsp,
        }


# ---------------------------------------------------------------------------
# Component costs (calibrated on the paper's U55C utilization, Table IV)
# ---------------------------------------------------------------------------

#: One asynchronous access engine (Figure 6): proxies, metadata queue,
#: 64-id reorder buffer.
ACCESS_ENGINE = ResourceVector(luts=11_000, registers=10_000, bram36=8, dsp=0)

#: Per-pipeline sampling unit, by Table I algorithm.
SAMPLER_UNITS: dict[str, ResourceVector] = {
    "uniform": ResourceVector(luts=4_000, registers=4_500, bram36=0, dsp=0),
    "alias": ResourceVector(luts=19_800, registers=16_400, bram36=24, dsp=12),
    "rejection": ResourceVector(luts=22_000, registers=25_500, bram36=4, dsp=29),
    "reservoir": ResourceVector(luts=22_000, registers=25_500, bram36=20, dsp=29),
}

#: ThundeRiNG RNG pair per pipeline (shared multiplier in DSPs).
RNG_UNIT = ResourceVector(luts=2_500, registers=3_000, bram36=0, dsp=8)

#: Per-pipeline share of scheduler FIFOs and recirculation buffering.
PIPELINE_BUFFERS = ResourceVector(luts=1_800, registers=2_200, bram36=4, dsp=0)

#: One dispatcher or merger unit (Algorithms VI.1/VI.2): ~150 LUTs, as
#: implied by the paper's "1.8% of LUTs" for the whole 16-wide scheduler
#: (159 units on the U55C's 1.3M-LUT fabric).
SCHEDULER_UNIT = ResourceVector(luts=150, registers=260, bram36=0, dsp=0)

#: Static platform shell, HBM switch and host interface.
SHELL = ResourceVector(luts=118_000, registers=135_000, bram36=80, dsp=64)

#: Per-algorithm control overhead (AXI4-Lite registers, teleport FSM...).
ALGORITHM_CONTROL: dict[str, ResourceVector] = {
    "URW": ResourceVector(),
    "PPR": ResourceVector(luts=9_000, registers=9_400, bram36=0, dsp=0),
    "DeepWalk": ResourceVector(),
    "Node2Vec": ResourceVector(luts=4_000, registers=6_000, bram36=0, dsp=0),
    "MetaPath": ResourceVector(luts=2_000, registers=3_000, bram36=0, dsp=0),
}

#: Frequency the implementation closes at for every kernel (Table IV),
#: and the scheduler standalone figure from Section VIII-F.
KERNEL_FREQUENCY_MHZ = 320.0
SCHEDULER_STANDALONE_MHZ = 450.0


def scheduler_units(num_pipelines: int) -> int:
    """Dispatcher/merger unit count of the zero-bubble scheduler.

    Balancer: ``2 * N * log2(N)`` units; distribution tree: ``N - 1``
    dispatchers; priority mergers: ``N``.
    """
    if num_pipelines < 1:
        raise ResourceModelError("num_pipelines must be >= 1")
    if num_pipelines == 1:
        return 1
    stages = math.ceil(math.log2(num_pipelines))
    return 2 * num_pipelines * stages + (num_pipelines - 1) + num_pipelines


def scheduler_resources(num_pipelines: int) -> ResourceVector:
    """Zero-bubble scheduler cost (Section VIII-F's standalone figure)."""
    return SCHEDULER_UNIT.scaled(scheduler_units(num_pipelines))


def estimate_kernel(
    spec: WalkSpec,
    num_pipelines: int = 16,
) -> ResourceVector:
    """Whole-accelerator resource estimate for one GRW kernel."""
    sampler_name = spec.make_sampler().name
    try:
        sampler_cost = SAMPLER_UNITS[sampler_name]
    except KeyError:
        raise ResourceModelError(f"no resource data for sampler {sampler_name!r}") from None
    per_pipeline = (
        ACCESS_ENGINE.scaled(2) + sampler_cost + RNG_UNIT + PIPELINE_BUFFERS
    )
    control = ALGORITHM_CONTROL.get(spec.name, ResourceVector())
    return (
        SHELL
        + per_pipeline.scaled(num_pipelines)
        + scheduler_resources(num_pipelines)
        + control.scaled(num_pipelines)
    )


def table4_row(spec: WalkSpec, device: DeviceSpec = ALVEO_U55C) -> dict[str, float]:
    """One Table IV row: utilization percentages plus frequency."""
    usage = estimate_kernel(spec, num_pipelines=device.max_pipelines)
    row = {k: v * 100.0 for k, v in usage.utilization(device).items()}
    row["Frequency"] = KERNEL_FREQUENCY_MHZ
    return row
