"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments import experiment_ids


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1-frb1"])
        args2 = build_parser().parse_args(
            ["run", "fig7-speed", "--replications", "2", "--requests", "10", "20"]
        )
        assert args.experiment == "table1-frb1"
        assert args2.replications == 2
        assert args2.requests == [10, 20]

    def test_performance_flag_defaults(self):
        args = build_parser().parse_args(["run", "fig10-facs-vs-scc"])
        assert args.executor == "serial"
        assert args.workers is None
        assert args.engine == "compiled"

    def test_performance_flags_parse(self):
        args = build_parser().parse_args(
            [
                "run",
                "fig10-facs-vs-scc",
                "--executor",
                "process",
                "--workers",
                "4",
                "--engine",
                "reference",
            ]
        )
        assert args.executor == "process"
        assert args.workers == 4
        assert args.engine == "reference"

    def test_workers_without_process_executor_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig7-speed", "--workers", "4"])

    def test_unknown_executor_and_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig7-speed", "--executor", "gpu"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig7-speed", "--engine", "warp"])


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in experiment_ids():
            assert experiment_id in output

    def test_run_table1(self, capsys):
        assert main(["run", "table1-frb1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_run_table2(self, capsys):
        assert main(["run", "table2-frb2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_run_membership_figures(self, capsys):
        assert main(["run", "fig5-flc1-mf"]) == 0
        assert "Fig. 5(a)" in capsys.readouterr().out
        assert main(["run", "fig6-flc2-mf"]) == 0
        assert "Fig. 6(d)" in capsys.readouterr().out

    def test_run_small_figure_sweep(self, capsys):
        code = main(
            ["run", "fig7-speed", "--replications", "1", "--requests", "10", "40"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 7" in output and "legend:" in output

    def test_benchmark_only_experiment_is_refused(self):
        with pytest.raises(SystemExit, match="benchmark-only"):
            main(["run", "abl-defuzz"])

    def test_engine_choice_does_not_change_results(self, capsys):
        base = ["run", "fig7-speed", "--replications", "1", "--requests", "15", "30"]
        assert main(base + ["--engine", "compiled"]) == 0
        compiled_output = capsys.readouterr().out
        assert main(base + ["--engine", "reference"]) == 0
        reference_output = capsys.readouterr().out
        assert compiled_output == reference_output

    def test_process_executor_matches_serial(self, capsys):
        base = [
            "run",
            "fig10-facs-vs-scc",
            "--replications",
            "1",
            "--requests",
            "10",
            "25",
        ]
        assert main(base) == 0
        serial_output = capsys.readouterr().out
        assert main(base + ["--executor", "process", "--workers", "2"]) == 0
        parallel_output = capsys.readouterr().out
        assert parallel_output == serial_output


class TestNetworkSweepCommand:
    def test_defaults_parse(self):
        args = build_parser().parse_args(["network-sweep"])
        assert args.rates == [0.01, 0.02, 0.03, 0.04, 0.05]
        assert args.replications == 3
        assert args.executor == "serial"
        assert args.engine == "compiled"
        assert args.controllers == ["FACS", "SCC", "CS"]

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "network-sweep",
                "--rates",
                "0.02",
                "0.04",
                "--replications",
                "2",
                "--duration",
                "300",
                "--controllers",
                "FACS",
                "CS",
                "--executor",
                "thread",
                "--workers",
                "2",
            ]
        )
        assert args.rates == [0.02, 0.04]
        assert args.controllers == ["FACS", "CS"]
        assert args.executor == "thread"
        assert args.workers == 2

    def test_unknown_controller_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["network-sweep", "--controllers", "Oracle"])

    def test_mode_choices_are_the_two_coupled_engines(self):
        parser = build_parser()
        for mode in ("coupled", "coupled-sharded"):
            assert parser.parse_args(["network-sweep", "--mode", mode]).mode == mode
        with pytest.raises(SystemExit):
            parser.parse_args(["network-sweep", "--mode", "sharded"])

    def test_workers_without_pool_executor_rejected(self):
        with pytest.raises(SystemExit):
            main(["network-sweep", "--workers", "4"])

    def test_small_sweep_runs(self, capsys):
        code = main(
            [
                "network-sweep",
                "--rates",
                "0.02",
                "0.04",
                "--replications",
                "1",
                "--duration",
                "150",
                "--controllers",
                "FACS",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "FACS — multi-cell QoS vs offered load" in output
        assert "Dropping probability vs offered load" in output

    def test_thread_executor_matches_serial(self, capsys):
        base = [
            "network-sweep",
            "--rates",
            "0.03",
            "--replications",
            "1",
            "--duration",
            "150",
            "--controllers",
            "FACS",
            "SCC",
        ]
        assert main(base) == 0
        serial_output = capsys.readouterr().out
        assert main(base + ["--executor", "thread", "--workers", "2"]) == 0
        threaded_output = capsys.readouterr().out
        assert threaded_output == serial_output

    def test_run_net_sweep_experiment_id(self, capsys):
        assert main(["run", "net-sweep", "--replications", "1"]) == 0
        assert "multi-cell QoS" in capsys.readouterr().out

    def test_run_surface_experiments(self, capsys):
        assert main(["run", "surface-flc1"]) == 0
        assert "FLC1 correction value" in capsys.readouterr().out
        assert main(["run", "surface-flc2"]) == 0
        assert "FLC2 accept/reject score" in capsys.readouterr().out
