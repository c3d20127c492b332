"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.sim.native import available_tiers

#: The compiled backend ``auto`` resolves to on this host: the native
#: C kernel when a working C compiler is present, the batched NumPy
#: kernels otherwise.
AUTO_COMPILED = "native" if available_tiers() else "batched"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_describe_args(self):
        args = build_parser().parse_args(["describe", "16", "4", "4", "2"])
        assert (args.a, args.b, args.c, args.l) == (16, 4, 4, 2)

    def test_pa_defaults(self):
        args = build_parser().parse_args(["pa", "16", "4", "4", "2"])
        assert args.rate == 1.0 and args.simulate == 0


class TestCommands:
    def test_describe(self, capsys):
        assert main(["describe", "16", "4", "4", "2"]) == 0
        out = capsys.readouterr().out
        assert "EDN(16,4,4,2)" in out
        assert "crosspoints (Eq. 2)" in out
        assert "2,304" in out

    def test_pa(self, capsys):
        assert main(["pa", "64", "16", "4", "2"]) == 0
        out = capsys.readouterr().out
        assert "PA(1) = 0.543738" in out

    def test_pa_with_simulation(self, capsys):
        assert main(["pa", "16", "4", "4", "2", "--simulate", "20"]) == 0
        assert "simulated over 20 cycles" in capsys.readouterr().out

    def test_pa_custom_rate(self, capsys):
        assert main(["pa", "16", "4", "4", "2", "-r", "0.5"]) == 0
        assert "PA(0.5)" in capsys.readouterr().out

    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "sec5_example" in out

    def test_experiment_run_one(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_mimd(self, capsys):
        assert main(["mimd", "16", "4", "4", "2", "-r", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "PA' (resubmitted)" in out
        assert "0.76" in out


class TestRouteCommand:
    def test_single_topology(self, capsys):
        assert main(["route", "-t", "edn:16,4,4,2", "--cycles", "20"]) == 0
        out = capsys.readouterr().out
        assert "edn:16,4,4,2" in out
        assert AUTO_COMPILED in out

    def test_multi_topology_comparison_one_liner(self, capsys):
        argv = ["route", "--cycles", "10"]
        for topology in ("edn:16,4,4,2", "delta:8,8,2", "crossbar:64",
                         "clos:8,8", "benes:64"):
            argv += ["-t", topology]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for topology, backend in (("delta:8,8,2", AUTO_COMPILED),
                                  ("clos:8,8", "matching"),
                                  ("benes:64", "looping")):
            assert topology in out and backend in out

    def test_explicit_backend(self, capsys):
        assert main(["route", "-t", "edn:16,4,4,2", "--cycles", "5",
                     "--backend", "reference"]) == 0
        assert "reference" in capsys.readouterr().out

    def test_bad_topology_is_an_error(self, capsys):
        assert main(["route", "-t", "hypercube:16", "--cycles", "5"]) == 2
        assert "hypercube" in capsys.readouterr().err

    def test_unsupported_backend_is_an_error(self, capsys):
        assert main(["route", "-t", "clos:8,8", "--backend", "batched"]) == 2
        assert "does not support" in capsys.readouterr().err

    def test_multi_traffic_comparison(self, capsys):
        assert main([
            "route", "-t", "edn:16,4,4,2", "--cycles", "20",
            "--traffic", "hotspot:0.1", "--traffic", "bitrev", "--traffic", "uniform",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("edn:16,4,4,2") == 3  # one row per workload
        for workload in ("hotspot:0.1", "bitrev", "uniform"):
            assert workload in out

    def test_traffic_crossed_with_topologies(self, capsys):
        assert main([
            "route", "-t", "edn:16,4,4,2", "-t", "omega:64", "--cycles", "10",
            "--traffic", "tornado", "--traffic", "uniform:0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("tornado") == 2 and out.count("uniform:0.5") == 2

    def test_default_traffic_reflects_rate(self, capsys):
        assert main(["route", "-t", "crossbar:16", "--cycles", "5", "-r", "0.5"]) == 0
        assert "uniform:0.5" in capsys.readouterr().out

    def test_bad_traffic_is_an_error(self, capsys):
        assert main(["route", "-t", "edn:16,4,4,2", "--traffic", "zipf"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestRouteFaultFlags:
    def test_explicit_faults_add_a_column(self, capsys):
        assert main([
            "route", "-t", "edn:16,4,4,2", "--cycles", "20",
            "--faults", "1:0:3,2:1:0",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults" in out
        assert out.count("edn:16,4,4,2") == 1
        assert " 2 " in out  # two dead wires reported
        assert AUTO_COMPILED in out  # faulted routing stays compiled

    def test_fault_flags_repeat_and_dedup(self, capsys):
        assert main([
            "route", "-t", "edn:16,4,4,2", "--cycles", "10",
            "--faults", "1:0:3", "--faults", "2:1:0,1:0:3",
        ]) == 0
        assert " 2 " in capsys.readouterr().out  # 1:0:3 counted once

    def test_fault_rate_draws_per_topology(self, capsys):
        assert main([
            "route", "-t", "edn:16,4,4,2", "-t", "delta:256,4",
            "--cycles", "10", "--fault-rate", "0.02@7",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults" in out and out.count(AUTO_COMPILED) == 2

    def test_fault_rate_seed_is_reproducible(self, capsys):
        argv = ["route", "-t", "delta:256,4", "--cycles", "10",
                "--fault-rate", "0.05@3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_fault_spec_is_an_error(self, capsys):
        assert main(["route", "-t", "edn:16,4,4,2", "--faults", "bogus"]) == 2
        assert "STAGE:SWITCH:WIRE" in capsys.readouterr().err

    def test_out_of_range_fault_is_an_error(self, capsys):
        assert main([
            "route", "-t", "edn:16,4,4,2", "--faults", "9:0:0",
        ]) == 2
        assert "stage" in capsys.readouterr().err

    def test_faults_on_global_topologies_are_an_error(self, capsys):
        assert main(["route", "-t", "clos:8,8", "--faults", "1:0:0"]) == 2
        assert "stage-graph kinds" in capsys.readouterr().err

    def test_retry_adds_closed_loop_columns(self, capsys):
        assert main([
            "route", "-t", "edn:4,2,2,2", "--cycles", "50", "--retry", "4:1:2",
        ]) == 0
        out = capsys.readouterr().out
        assert "retry 4:1:2" in out
        for column in ("attempts", "latency", "abandoned"):
            assert column in out

    def test_bad_retry_spec_is_an_error(self, capsys):
        assert main([
            "route", "-t", "edn:4,2,2,2", "--retry", "many",
        ]) == 2
        assert "retry" in capsys.readouterr().err

    def test_degradation_experiment_is_reachable(self, capsys):
        assert main(["experiment", "--list"]) == 0
        assert "degradation" in capsys.readouterr().out


class TestWorkloadsCommand:
    def test_lists_registry(self, capsys):
        assert main(["workloads", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("uniform", "hotspot", "bursty", "mixture", "trace", "bitrev"):
            assert name in out
        assert "spec syntax" in out

    def test_bare_command_also_lists(self, capsys):
        assert main(["workloads"]) == 0
        assert "Registered traffic models" in capsys.readouterr().out

    def test_descriptions_come_from_model_docstrings(self, capsys):
        from repro.workloads import UniformTraffic

        assert main(["workloads"]) == 0
        first_line = UniformTraffic.__doc__.strip().splitlines()[0]
        assert first_line in capsys.readouterr().out

    def test_inspects_one_spec(self, capsys):
        assert main(["workloads", "hotspot:0.2,out=3"]) == 0
        out = capsys.readouterr().out
        assert "HotspotTraffic" in out and "hotspot:0.2,out=3" in out

    def test_bad_spec_is_an_error(self, capsys):
        assert main(["workloads", "hotspot:heat=1"]) == 2
        assert "unknown argument" in capsys.readouterr().err


class TestMachineReadableOutput:
    def test_experiment_json(self, capsys):
        import json

        assert main(["experiment", "fig2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert isinstance(data, list) and data[0]["experiment_id"] == "fig2"
        assert "routing" in data[0]["tables"]

    def test_experiment_json_multiple_ids(self, capsys):
        import json

        assert main(["experiment", "fig2", "fig4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [entry["experiment_id"] for entry in data] == ["fig2", "fig4"]

    def test_experiment_csv(self, capsys):
        assert main(["experiment", "fig7", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "# fig7: series" in out
        assert "series,x,y" in out

    def test_json_and_csv_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig2", "--json", "--csv"])


class TestBatchedOptions:
    def test_pa_simulate_with_batch(self, capsys):
        assert main(["pa", "16", "4", "4", "2", "--simulate", "20", "--batch", "5"]) == 0
        assert "simulated over 20 cycles" in capsys.readouterr().out

    def test_experiment_accepts_jobs_and_batch(self, capsys):
        assert main(["experiment", "fig7_mc", "--jobs", "2", "--batch", "16"]) == 0
        assert "Monte-Carlo validation" in capsys.readouterr().out

    def test_experiment_overrides_ignored_by_analytic(self, capsys):
        assert main(["experiment", "fig2", "--jobs", "2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_maspar_batched_runs(self, capsys):
        assert main(["maspar", "--runs", "2", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "cycles to drain" in out

    def test_experiment_traffic_override(self, capsys):
        assert main(["experiment", "workload_matrix", "--traffic", "hotspot:0.3"]) == 0
        out = capsys.readouterr().out
        assert "hotspot:0.3" in out
        assert "bitrev" not in out  # the override narrows the sweep

    def test_experiment_traffic_ignored_by_analytic(self, capsys):
        assert main(["experiment", "fig2", "--traffic", "hotspot:0.3"]) == 0
        assert "Figure 2" in capsys.readouterr().out


class TestBufferedRoute:
    def test_buffer_depth_prints_latency_table(self, capsys):
        assert main([
            "route", "-t", "edn:16,4,4,2", "--cycles", "80",
            "--buffer-depth", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Buffered packet switching" in out
        assert "depth" in out
        for column in ("p50", "p95", "p99", "occupancy"):
            assert column in out

    def test_buffered_route_with_faults_reports_drops(self, capsys):
        assert main([
            "route", "-t", "edn:16,4,4,2", "--cycles", "80",
            "--buffer-depth", "2", "--faults", "1:0:3",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults" in out and "dropped" in out

    def test_buffered_route_is_reproducible(self, capsys):
        argv = ["route", "-t", "edn:16,4,4,2", "--cycles", "40",
                "--buffer-depth", "2", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_buffer_depth_rejects_retry(self, capsys):
        assert main([
            "route", "-t", "edn:16,4,4,2", "--buffer-depth", "2",
            "--retry", "4",
        ]) == 2
        assert "retry" in capsys.readouterr().err

    def test_chaos_command_is_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["chaos", "--json", "--seed", "3"])
        assert args.command == "chaos" and args.seed == 3
