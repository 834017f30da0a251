"""FPGA device catalog (Tables III and IV).

Capacities are the public Alveo/Versal datasheet numbers; each device
references the memory spec calibrated in :mod:`repro.memory.spec`, and
records how many RidgeWalker pipelines its channel count supports
(channels / 2, Section VIII-A1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ResourceModelError
from repro.memory.spec import (
    DDR4_U250,
    DDR4_VCK5000,
    HBM2_U50,
    HBM2_U280,
    HBM2_U55C,
    MemorySpec,
)


@dataclass(frozen=True)
class DeviceSpec:
    """One FPGA board."""

    name: str
    luts: int
    registers: int
    bram36: int
    dsp: int
    memory: MemorySpec

    @property
    def max_pipelines(self) -> int:
        """Pipelines supported by the memory channels (2 per pipeline)."""
        return self.memory.num_channels // 2


ALVEO_U50 = DeviceSpec(
    name="U50",
    luts=872_000,
    registers=1_743_000,
    bram36=1_344,
    dsp=5_952,
    memory=HBM2_U50,
)

ALVEO_U55C = DeviceSpec(
    name="U55C",
    luts=1_304_000,
    registers=2_607_000,
    bram36=2_016,
    dsp=9_024,
    memory=HBM2_U55C,
)

ALVEO_U280 = DeviceSpec(
    name="U280",
    luts=1_304_000,
    registers=2_607_000,
    bram36=2_016,
    dsp=9_024,
    memory=HBM2_U280,
)

ALVEO_U250 = DeviceSpec(
    name="U250",
    luts=1_728_000,
    registers=3_456_000,
    bram36=2_688,
    dsp=12_288,
    memory=DDR4_U250,
)

VCK5000 = DeviceSpec(
    name="VCK5000",
    luts=900_000,
    registers=1_800_000,
    bram36=967,
    dsp=1_968,
    memory=DDR4_VCK5000,
)

#: Table III device order.
DEVICE_CATALOG: dict[str, DeviceSpec] = {
    "U250": ALVEO_U250,
    "VCK5000": VCK5000,
    "U50": ALVEO_U50,
    "U55C": ALVEO_U55C,
    "U280": ALVEO_U280,
}


def get_device(name: str) -> DeviceSpec:
    """Look up a device by name."""
    try:
        return DEVICE_CATALOG[name]
    except KeyError:
        known = ", ".join(DEVICE_CATALOG)
        raise ResourceModelError(f"unknown device {name!r}; known: {known}") from None
