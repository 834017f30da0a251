"""Unit tests for the device catalog and resource model (Tables III/IV)."""

import pytest

from repro.errors import ResourceModelError
from repro.resources import (
    ALVEO_U50,
    ALVEO_U55C,
    DEVICE_CATALOG,
    ResourceVector,
    estimate_kernel,
    get_device,
    scheduler_resources,
    scheduler_units,
    table4_row,
)
from repro.walks import DeepWalkSpec, Node2VecSpec, PPRSpec, URWSpec


class TestDevices:
    def test_catalog_complete(self):
        assert set(DEVICE_CATALOG) == {"U250", "VCK5000", "U50", "U55C", "U280"}

    def test_max_pipelines(self):
        assert ALVEO_U55C.max_pipelines == 16
        assert get_device("U250").max_pipelines == 2

    def test_unknown_device(self):
        with pytest.raises(ResourceModelError, match="unknown device"):
            get_device("U9999")


class TestResourceVector:
    def test_add_and_scale(self):
        a = ResourceVector(luts=10, registers=20, bram36=1, dsp=2)
        b = a + a.scaled(2)
        assert b.luts == 30 and b.dsp == 6

    def test_utilization_and_fits(self):
        small = ResourceVector(luts=1000, registers=1000, bram36=1, dsp=1)
        util = small.utilization(ALVEO_U55C)
        assert 0 < util["LUTs"] < 0.01
        assert max(util.values()) <= 1.0
        huge = ResourceVector(luts=10**8, registers=0, bram36=0, dsp=0)
        assert huge.utilization(ALVEO_U55C)["LUTs"] > 1.0


class TestSchedulerModel:
    def test_unit_count_formula(self):
        # 2*N*log2(N) + (N-1) + N
        assert scheduler_units(16) == 2 * 16 * 4 + 15 + 16
        assert scheduler_units(4) == 2 * 4 * 2 + 3 + 4
        assert scheduler_units(1) == 1

    def test_paper_standalone_figure(self):
        # ~1.8% of U55C LUTs for the 16-wide scheduler (Section VIII-F).
        pct = scheduler_resources(16).luts / ALVEO_U55C.luts * 100
        assert 1.4 < pct < 2.2

    def test_validation(self):
        with pytest.raises(ResourceModelError):
            scheduler_units(0)


class TestTable4:
    def paper(self):
        return {
            "PPR": (61.1, 29.8, 19.5, 2.2),
            "URW": (50.1, 24.0, 19.5, 2.2),
            "DeepWalk": (67.5, 32.3, 39.1, 4.4),
            "Node2Vec": (79.1, 41.6, 36.0, 7.3),
        }

    def specs(self):
        return {
            "PPR": PPRSpec(),
            "URW": URWSpec(),
            "DeepWalk": DeepWalkSpec(),
            "Node2Vec": Node2VecSpec(strategy="reservoir"),
        }

    def test_every_cell_within_six_points(self):
        for name, spec in self.specs().items():
            row = table4_row(spec)
            expected = self.paper()[name]
            got = (row["LUTs"], row["REGs"], row["BRAMs"], row["DSPs"])
            for g, e in zip(got, expected):
                assert abs(g - e) < 6.0, (name, got, expected)

    def test_kernel_ordering(self):
        rows = {name: table4_row(spec) for name, spec in self.specs().items()}
        assert rows["Node2Vec"]["LUTs"] > rows["DeepWalk"]["LUTs"] > rows["URW"]["LUTs"]
        assert rows["DeepWalk"]["BRAMs"] > rows["URW"]["BRAMs"]

    def test_every_kernel_fits_u55c(self):
        for spec in self.specs().values():
            util = estimate_kernel(spec, num_pipelines=16).utilization(ALVEO_U55C)
            assert max(util.values()) <= 1.0

    def test_scaling_with_pipelines(self):
        small = estimate_kernel(URWSpec(), num_pipelines=4)
        large = estimate_kernel(URWSpec(), num_pipelines=16)
        assert large.luts > small.luts
        # Sub-linear total growth: the shell is shared.
        assert large.luts < 4 * small.luts

    def test_u50_tighter_than_u55c(self):
        usage = estimate_kernel(DeepWalkSpec(), num_pipelines=16)
        assert usage.utilization(ALVEO_U50)["LUTs"] > usage.utilization(ALVEO_U55C)["LUTs"]

    def test_unknown_sampler_rejected(self):
        class WeirdSpec(URWSpec):
            def make_sampler(self):
                sampler = super().make_sampler()
                sampler.name = "quantum"
                return sampler

        with pytest.raises(ResourceModelError, match="quantum"):
            estimate_kernel(WeirdSpec())
