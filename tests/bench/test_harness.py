"""Unit tests for the benchmark harness (reporting + fast experiments)."""

import os

import pytest

from repro.bench import (
    EXPERIMENTS,
    ExperimentResult,
    geometric_mean,
    make_rmat_workload,
    make_spec,
    make_workload,
    speedup,
)
from repro.bench.workloads import compensated_graph500_initiator
from repro.errors import BenchmarkError


class TestReporting:
    def result(self):
        r = ExperimentResult("test", "A test table")
        r.add_row(graph="WG", value=1.0)
        r.add_row(graph="LJ", value=2.5)
        r.add_note("a note")
        return r

    def test_column(self):
        assert self.result().column("value") == [1.0, 2.5]

    def test_column_missing_raises(self):
        with pytest.raises(BenchmarkError, match="missing"):
            self.result().column("nope")

    def test_row_for(self):
        assert self.result().row_for(graph="LJ")["value"] == 2.5

    def test_row_for_missing_raises(self):
        with pytest.raises(BenchmarkError, match="no row"):
            self.result().row_for(graph="XX")

    def test_to_table_renders(self):
        text = self.result().to_table()
        assert "WG" in text and "2.50" in text and "a note" in text

    def test_empty_table(self):
        assert "(no rows)" in ExperimentResult("x", "t").to_table()

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        with pytest.raises(BenchmarkError):
            speedup(1.0, 0.0)

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(BenchmarkError):
            geometric_mean([])
        with pytest.raises(BenchmarkError):
            geometric_mean([1.0, -1.0])


class TestWorkloads:
    def test_make_spec_all_algorithms(self):
        for algorithm in (
            "URW", "PPR", "DeepWalk", "Node2Vec", "Node2Vec-reservoir", "MetaPath"
        ):
            spec = make_spec(algorithm)
            assert spec.max_length == 80

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            make_spec("QuantumWalk")

    def test_metapath_workload_has_types(self):
        workload = make_workload("WG", "MetaPath")
        assert workload.graph.has_edge_types

    def test_deepwalk_workload_is_weighted(self):
        workload = make_workload("WG", "DeepWalk")
        assert workload.graph.is_weighted

    def test_rmat_workload_labels(self):
        workload = make_rmat_workload(16, 8, "balanced")
        assert workload.graph.num_vertices == 2**12  # SC16 -> sim scale 12
        assert "SC16-8" in workload.label

    def test_compensated_initiator_sums_to_one(self):
        probs = compensated_graph500_initiator(24, 14)
        assert sum(probs) == pytest.approx(1.0)
        # more skewed than nominal Graph500
        assert probs[0] > 0.57
        assert probs[3] < 0.05

    def test_registry_covers_every_paper_artifact(self):
        expected = {
            "fig3a", "fig8a", "fig8b", "fig8c", "fig8d", "fig9", "fig10",
            "fig11", "tab1", "tab2", "tab3", "tab4",
            "micro-depth", "micro-outstanding",
        }
        assert expected <= set(EXPERIMENTS)


class TestFastExperiments:
    """Cheap experiments run directly; the simulator-heavy ones are
    exercised by benchmarks/ (and by these same functions in fast mode)."""

    def test_tab1(self):
        result = EXPERIMENTS["tab1"]()
        assert len(result.rows) == 6
        assert all(r["sampler"] == r["expected_sampler"] for r in result.rows)

    def test_tab4(self):
        result = EXPERIMENTS["tab4"]()
        assert len(result.rows) == 4
        assert all(r["frequency_mhz"] == 320.0 for r in result.rows)

    def test_micro_depth(self):
        result = EXPERIMENTS["micro-depth"]()
        assert any(r["meets_theorem"] for r in result.rows)
        shallow = result.row_for(depth=1)["bubble_ratio"]
        deep = [r for r in result.rows if r["meets_theorem"]]
        assert all(r["bubble_ratio"] < shallow for r in deep)
        # Pinned exactly: bubble cycles over 16 servers x 5872 post-warmup
        # cycles.  Dispatch ties break by server index, so the rows are
        # equal on every host (CI reruns this at baseline SIMD dispatch).
        server_cycles = 16 * (6000 - 128)
        bubbles = {1: 7139, 2: 7138, 4: 7466, 8: 4262, 17: 1099, 34: 267}
        assert [(r["depth"], r["bubble_ratio"], r["meets_theorem"]) for r in result.rows] == [
            (depth, count / server_cycles, depth >= 17) for depth, count in bubbles.items()]
