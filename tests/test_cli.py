"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, WORKLOADS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare", "stride"])
        assert args.workload == "stride"
        assert args.memory == 0.5
        assert args.seed == 42

    def test_run_system_choice(self):
        args = build_parser().parse_args(["run", "random", "--system", "d-vmm"])
        assert args.system == "d-vmm"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "sap-hana"])


class TestCommands:
    def test_figures_lists_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for fig_id, _, _ in FIGURES:
            assert fig_id in out

    def test_run_small(self, capsys):
        code = main(
            [
                "run",
                "stride",
                "--wss-pages",
                "512",
                "--accesses",
                "2000",
                "--system",
                "leap",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "leap" in out
        assert "coverage" in out

    def test_compare_small(self, capsys):
        code = main(
            ["compare", "stride", "--wss-pages", "512", "--accesses", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "d-vmm+leap" in out
        assert "improvement" in out

    def test_every_workload_constructs(self):
        parser = build_parser()
        for name in WORKLOADS:
            args = parser.parse_args(
                ["run", name, "--wss-pages", "256", "--accesses", "100"]
            )
            assert args.workload == name


class TestScenarioCommands:
    def test_list_shows_all_registered(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert len(scenario_names()) >= 8
        for name in scenario_names():
            assert name in out

    def test_run_small(self, capsys):
        code = main(
            [
                "scenario", "run", "web-tier-zipf",
                "--wss-pages", "256", "--accesses", "1200",
                "--cores", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "web-0" in out
        assert "makespan" in out

    def test_run_cluster_failure_scenario(self, capsys):
        code = main(
            [
                "scenario", "run", "failover-under-load",
                "--wss-pages", "256", "--accesses", "2400",
                "--cores", "2", "--servers", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster engine" in out
        assert "recovery:" in out

    def test_run_warns_when_scheduled_events_never_fire(self, capsys):
        """phase-shift's 4 ms limit cut lies past a tiny run's end; the
        CLI must say so instead of silently running steady-state."""
        code = main(
            [
                "scenario", "run", "phase-shift",
                "--wss-pages", "256", "--accesses", "600", "--cores", "2",
            ]
        )
        assert code == 0
        assert "never fired" in capsys.readouterr().out

    def test_run_json_payload(self, capsys):
        import json

        code = main(
            [
                "scenario", "run", "stride-adversary", "--json",
                "--wss-pages", "256", "--accesses", "900", "--cores", "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "stride-adversary"
        assert set(payload["tenants"]) == {"stride-10", "stride-7", "scan"}

    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        code = main(["scenario", "run", "sap-hana"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_unknown_prefetcher_fails_cleanly(self, capsys):
        code = main(
            ["scenario", "run", "web-tier-zipf", "--prefetcher", "psychic"]
        )
        assert code == 2
        assert "unknown prefetcher" in capsys.readouterr().err

    def test_sweep_writes_json(self, capsys, tmp_path):
        import json

        out = tmp_path / "sweep.json"
        code = main(
            [
                "scenario", "sweep", "web-tier-zipf",
                "--cores", "2", "--servers", "2",
                "--prefetchers", "leap",
                "--wss-pages", "256", "--accesses", "900",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "grid points" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["grid"]["prefetchers"] == ["leap"]
        assert len(payload["runs"]) == 1

    def test_sweep_rejects_bad_core_list(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "sweep", "--cores", "two,four"]
            )


class TestControlCommand:
    def test_ab_table_and_verdict(self, capsys):
        code = main(
            [
                "control", "phase-shift-governed",
                "--wss-pages", "256", "--accesses", "2000", "--cores", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "governed" in out
        assert "static-leap" in out
        assert "agg hit rate" in out
        assert "best static" in out
        assert "governor decisions" in out
        assert "limit trajectory phased" in out

    def test_default_scenario_is_phase_shift_governed(self):
        args = build_parser().parse_args(["control"])
        assert args.name == "phase-shift-governed"

    def test_json_payload_reports_decisions_and_limits(self, capsys):
        import json

        code = main(
            [
                "control", "phase-shift-governed", "--json",
                "--wss-pages", "256", "--accesses", "1500", "--cores", "2",
                "--statics", "leap,ghb",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["arms"]) == {"governed", "static-leap", "static-ghb"}
        governed = payload["arms"]["governed"]
        assert "decisions" in governed["control"]
        # Governor-only scenario: a trajectory exists but never moves.
        assert len(governed["control"]["limits"]["phased"]) == 1
        assert "rebalances" not in governed["control"]
        assert payload["summary"]["best_static"].startswith("static-")

    def test_ungoverned_scenario_fails_cleanly(self, capsys):
        code = main(
            ["control", "web-tier-zipf", "--wss-pages", "256", "--accesses", "900"]
        )
        assert code == 2
        assert "control plane" in capsys.readouterr().err

    def test_balanced_scenario_prints_rebalances(self, capsys):
        code = main(
            [
                "control", "noisy-neighbor-balanced",
                "--wss-pages", "256", "--accesses", "2400", "--cores", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "memory rebalances" in out or "no budget moved" in out
