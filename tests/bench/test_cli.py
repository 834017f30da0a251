"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graph import cycle_graph, save_edge_list, save_npz


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_walk_defaults(self):
        args = build_parser().parse_args(["walk"])
        assert args.algorithm == "URW"
        assert args.dataset == "WG"
        assert args.engine == "sim"
        assert args.device is None  # resolved to U55C by the sim engine

    def test_experiment_id_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_serve_bench_has_no_max_wait(self):
        """No dispatcher waits to coalesce, so no flag sets the wait."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--max-wait-ms", "2"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "WG" in out and "URW" in out and "U55C" in out and "fig8a" in out

    def test_walk_on_dataset(self, capsys):
        code = main([
            "walk", "--dataset", "WG", "--scale", "0.05", "--pipelines", "2",
            "--queries", "24", "--length", "8", "--device", "U50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MStep/s" in out and "walk lengths" in out

    def test_walk_software_engines(self, capsys):
        for engine in ("batch", "reference"):
            code = main([
                "walk", "--engine", engine, "--dataset", "WG", "--scale", "0.05",
                "--queries", "32", "--length", "8", "--algorithm", "PPR",
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert f"{engine} engine:" in out and "hops/s" in out
            assert "walk lengths" in out

    def test_software_engine_rejects_sim_only_flags(self, capsys):
        code = main([
            "walk", "--engine", "batch", "--streaming",
            "--dataset", "WG", "--scale", "0.05", "--queries", "8",
        ])
        assert code == 1
        assert "--engine sim" in capsys.readouterr().err

    def test_walk_streaming_with_trace(self, capsys):
        code = main([
            "walk", "--dataset", "AS", "--scale", "0.05", "--pipelines", "2",
            "--queries", "48", "--length", "20", "--streaming", "--trace",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "steady state" in out and "pipe0.sp" in out

    def test_walk_on_graph_file(self, tmp_path, capsys):
        path = tmp_path / "ring.npz"
        save_npz(cycle_graph(64), path)
        code = main([
            "walk", "--dataset", str(path), "--pipelines", "2",
            "--queries", "16", "--length", "10",
        ])
        assert code == 0
        assert "MStep/s" in capsys.readouterr().out

    def test_walk_on_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "ring.txt"
        save_edge_list(cycle_graph(32), path)
        code = main([
            "walk", "--dataset", str(path), "--pipelines", "2",
            "--queries", "8", "--length", "5",
        ])
        assert code == 0

    def test_experiment_command(self, capsys):
        assert main(["experiment", "tab1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "reservoir" in out

    @pytest.mark.parametrize("engine", ["batch", "reference"])
    def test_serve_bench_replays_through_the_serving_engine(self, engine, capsys):
        """Every run, plain or with tenants / scenario / cache, checks
        every served path against one offline run of the engine that
        served it: reference paths equal reference's own run, not
        batch's."""
        plain = ["serve-bench", "--engine", engine, "--requests", "100",
                 "--scale", "0.05", "--length", "16"]
        for argv in (plain, plain + ["--scenario", "flash-crowd", "--tenants", "2",
                                     "--cache", "--rate", "2000"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert ("replay identity: 100 served paths bit-identical"
                    in captured.out), argv
            assert "supersteps:" in captured.out

    def test_error_reported_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.npz"
        code = main(["walk", "--dataset", str(missing)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
