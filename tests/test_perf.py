"""Perf artifacts: emission, schema, and the regression gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.perf import (
    ARTIFACT_SCHEMA_VERSION,
    PROFILES,
    compare_artifacts,
    load_artifact,
    percentiles_us,
    profile_cluster,
    run_profile,
    write_artifact,
)
from repro.perf.__main__ import main as perf_main


def make_artifact(**app_overrides) -> dict:
    apps = {
        "powergraph": {
            "p50_us": 2.0,
            "p95_us": 10.0,
            "p99_us": 15.0,
            "completion_s": 1.0,
            "faults": 1000,
        },
        "numpy": {
            "p50_us": 1.0,
            "p95_us": 8.0,
            "p99_us": 12.0,
            "completion_s": 2.0,
            "faults": 500,
        },
    }
    for app, overrides in app_overrides.items():
        apps[app].update(overrides)
    return {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "bench": "fig13",
        "engine": "concurrent",
        "config": {"seed": 42},
        "apps": apps,
    }


class TestPercentiles:
    def test_empty_samples(self):
        assert percentiles_us([]) == {"p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0}

    def test_known_values(self):
        samples = list(range(1000, 101_000, 1000))  # 1..100 us in ns
        stats = percentiles_us(samples)
        assert 50.0 <= stats["p50_us"] <= 51.0
        assert 95.0 <= stats["p95_us"] <= 96.0
        assert stats["p99_us"] <= 100.0
        assert stats["p50_us"] < stats["p95_us"] < stats["p99_us"]


class TestArtifactIO:
    def test_write_and_load_roundtrip(self, tmp_path):
        artifact = make_artifact()
        path = write_artifact(artifact, tmp_path)
        assert path.name == "BENCH_fig13.json"
        assert load_artifact(path) == artifact

    def test_write_requires_bench_name(self, tmp_path):
        with pytest.raises(ValueError):
            write_artifact({"apps": {}}, tmp_path)

    def test_load_rejects_unknown_schema(self, tmp_path):
        artifact = make_artifact()
        artifact["schema"] = 999
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(artifact))
        with pytest.raises(ValueError):
            load_artifact(path)


class TestGate:
    def test_identical_artifacts_pass(self):
        base = make_artifact()
        assert compare_artifacts(copy.deepcopy(base), base) == []

    def test_within_budget_passes(self):
        base = make_artifact()
        current = make_artifact(powergraph={"p95_us": 11.5})  # +15%
        assert compare_artifacts(current, base, max_regression=0.20) == []

    def test_regression_past_budget_fails(self):
        base = make_artifact()
        current = make_artifact(powergraph={"p95_us": 13.0})  # +30%
        violations = compare_artifacts(current, base, max_regression=0.20)
        assert len(violations) == 1
        assert violations[0].app == "powergraph"
        assert violations[0].metric == "p95_us"
        assert violations[0].regression == pytest.approx(0.30)

    def test_improvement_never_fails(self):
        base = make_artifact()
        current = make_artifact(
            powergraph={"p95_us": 1.0}, numpy={"completion_s": 0.5}
        )
        assert compare_artifacts(current, base) == []

    def test_missing_app_is_a_violation(self):
        base = make_artifact()
        current = make_artifact()
        del current["apps"]["numpy"]
        violations = compare_artifacts(current, base)
        assert {v.app for v in violations} == {"numpy"}

    def test_extra_app_is_ignored(self):
        base = make_artifact()
        current = make_artifact()
        current["apps"]["voltdb"] = {"p95_us": 1e9, "completion_s": 1e9}
        assert compare_artifacts(current, base) == []

    def test_servers_section_is_gated(self):
        base = make_artifact()
        base["servers"] = {"0": {"p95_us": 10.0, "reads": 100}}
        current = make_artifact()
        current["servers"] = {"0": {"p95_us": 14.0, "reads": 100}}
        violations = compare_artifacts(current, base, max_regression=0.20)
        assert len(violations) == 1
        assert violations[0].app == "server:0"
        assert violations[0].metric == "p95_us"

    def test_missing_server_is_a_violation(self):
        base = make_artifact()
        base["servers"] = {"0": {"p95_us": 10.0}}
        violations = compare_artifacts(make_artifact(), base)
        assert {v.app for v in violations} == {"server:0"}


class TestPerfCompare:
    def test_compare_prints_per_section_deltas(self, tmp_path, capsys):
        old = write_artifact(make_artifact(), tmp_path / "old")
        current = make_artifact(powergraph={"p95_us": 12.0})
        current["servers"] = {"0": {"p95_us": 5.0}}
        new = write_artifact(current, tmp_path / "new")
        assert perf_main(["compare", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "[apps]" in out and "[servers]" in out
        assert "powergraph: p95_us 10 -> 12 (+20.0%)" in out
        assert "numpy: p95_us unchanged" in out
        assert "0: new row" in out

    def test_compare_flags_vanished_rows(self, tmp_path, capsys):
        old = write_artifact(make_artifact(), tmp_path / "old")
        current = make_artifact()
        del current["apps"]["numpy"]
        new = write_artifact(current, tmp_path / "new")
        assert perf_main(["compare", str(old), str(new)]) == 0
        assert "numpy: VANISHED" in capsys.readouterr().out

    def test_compare_rejects_missing_file(self, tmp_path, capsys):
        old = write_artifact(make_artifact(), tmp_path)
        assert perf_main(["compare", str(old), str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_rejects_missing_apps_section(self, tmp_path, capsys):
        # A structurally malformed artifact must exit nonzero, not
        # print a partial (empty) table — CI distinguishes schema
        # drift (this) from a perf regression (the gate step).
        old = write_artifact(make_artifact(), tmp_path / "old")
        broken = make_artifact()
        del broken["apps"]
        new = write_artifact(broken, tmp_path / "new")
        assert perf_main(["compare", str(old), str(new)]) == 2
        captured = capsys.readouterr()
        assert "no 'apps' section" in captured.err
        assert "[apps]" not in captured.out

    def test_compare_rejects_empty_apps_section(self, tmp_path, capsys):
        old = write_artifact(make_artifact(), tmp_path / "old")
        broken = make_artifact()
        broken["apps"] = {}
        new = write_artifact(broken, tmp_path / "new")
        assert perf_main(["compare", str(old), str(new)]) == 2
        assert "no 'apps' section" in capsys.readouterr().err

    def test_compare_rejects_mangled_rows(self, tmp_path, capsys):
        broken = make_artifact()
        broken["apps"]["powergraph"] = "not-a-row"
        old = write_artifact(broken, tmp_path / "old")
        new = write_artifact(make_artifact(), tmp_path / "new")
        assert perf_main(["compare", str(old), str(new)]) == 2
        assert "not a metrics row" in capsys.readouterr().err

    def test_compare_rejects_non_mapping_servers(self, tmp_path, capsys):
        broken = make_artifact()
        broken["servers"] = ["row"]
        old = write_artifact(make_artifact(), tmp_path / "old")
        new = write_artifact(broken, tmp_path / "new")
        assert perf_main(["compare", str(old), str(new)]) == 2
        assert "'servers' section is not a mapping" in capsys.readouterr().err


class TestRunProfile:
    def test_rejects_options_the_profile_does_not_take(self):
        # Checked before anything runs: a pinned tier takes no scale,
        # a scenario profile no engine.
        with pytest.raises(ValueError, match="fig13_scale profile takes no wss_pages"):
            run_profile("fig13_scale", wss_pages=64)
        with pytest.raises(ValueError, match="cluster profile takes no engine"):
            run_profile("cluster", engine="object")

    def test_cli_rejects_options_the_profile_does_not_take(self, tmp_path):
        with pytest.raises(SystemExit, match="trace profile takes no cores"):
            perf_main(["--profile", "trace", "--cores", "2", "--out", str(tmp_path)])


class TestFig13Profile:
    @pytest.fixture(scope="class")
    def profile(self):
        return run_profile("fig13", wss_pages=256, accesses=1200, cores=2)

    def test_artifact_shape(self, profile):
        artifact, result = profile
        assert artifact["schema"] == ARTIFACT_SCHEMA_VERSION
        assert artifact["bench"] == "fig13"
        assert artifact["engine"] == "concurrent"
        assert set(artifact["apps"]) == {"powergraph", "numpy", "voltdb", "memcached"}
        for row in artifact["apps"].values():
            assert row["p50_us"] <= row["p95_us"] <= row["p99_us"]
            assert row["completion_s"] > 0
        assert artifact["wall_clock_s"] >= 0
        assert "cores" in artifact and len(artifact["cores"]) == 2

    def test_deterministic_simulated_metrics(self, profile):
        artifact, _ = profile
        again, _ = run_profile("fig13", wss_pages=256, accesses=1200, cores=2)
        strip = lambda a: {  # noqa: E731 - local helper
            name: {k: v for k, v in row.items()}
            for name, row in a["apps"].items()
        }
        assert strip(again) == strip(artifact)

    def test_cli_gate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        flags = ["--wss-pages", "256", "--accesses", "1200", "--cores", "2"]
        code = perf_main(["--out", str(out), *flags])
        assert code == 0
        baseline = out / "BENCH_fig13.json"
        assert baseline.exists()
        code = perf_main(
            ["--out", str(tmp_path / "second"), *flags, "--baseline", str(baseline)]
        )
        assert code == 0
        assert "perf gate OK" in capsys.readouterr().out

    def test_cli_gate_fails_on_regression(self, tmp_path, capsys):
        artifact, _ = run_profile("fig13", wss_pages=256, accesses=1200, cores=2)
        for row in artifact["apps"].values():
            row["p95_us"] *= 0.5  # make the baseline impossibly fast
        baseline = write_artifact(artifact, tmp_path)
        flags = ["--wss-pages", "256", "--accesses", "1200", "--cores", "2"]
        code = perf_main(
            ["--out", str(tmp_path / "out"), *flags, "--baseline", str(baseline)]
        )
        assert code == 1
        assert "PERF GATE FAILED" in capsys.readouterr().out


class TestClusterProfile:
    @pytest.fixture(scope="class")
    def profile(self):
        return run_profile("cluster", wss_pages=256, accesses=1200, cores=2, servers=3)

    def test_artifact_shape(self, profile):
        artifact, _ = profile
        assert artifact["bench"] == "cluster"
        assert artifact["engine"] == "cluster"
        assert set(artifact["apps"]) == {"powergraph", "numpy", "voltdb", "memcached"}
        assert set(artifact["servers"]) == {"0", "1", "2"}
        for row in artifact["servers"].values():
            assert row["p50_us"] <= row["p95_us"] <= row["p99_us"]
            assert row["alive"] is True
        assert artifact["recovery"]["remapped_slabs"] == 0
        assert artifact["recovery"]["slot_reuses"] > 0

    def test_deterministic(self, profile):
        artifact, _ = profile
        again, _ = run_profile("cluster", wss_pages=256, accesses=1200, cores=2, servers=3)
        assert again["apps"] == artifact["apps"]
        assert again["servers"] == artifact["servers"]

    def test_cli_cluster_gate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        args = ["--profile", "cluster", "--wss-pages", "256"]
        args += ["--accesses", "1200", "--cores", "2", "--servers", "3"]
        assert perf_main(["--out", str(out), *args]) == 0
        baseline = out / "BENCH_cluster.json"
        assert baseline.exists()
        code = perf_main(
            ["--out", str(tmp_path / "second"), *args, "--baseline", str(baseline)]
        )
        assert code == 0
        assert "perf gate OK" in capsys.readouterr().out

    def test_seeded_failure_run_recovers(self):
        # The gated profile runs failure-free; the same mix with server
        # 0 crashing 5 ms into the measured phase must still reduce to
        # a complete artifact and keep every page's contents.
        from repro.bench.prefetch import application_workloads
        from repro.bench.runner import BenchScale
        from repro.cluster import FailureEvent
        from repro.sim.machine import Machine, cluster_config
        from repro.sim.units import ms

        machine = Machine(cluster_config(seed=42, remote_machines=3))
        apps = application_workloads(BenchScale(wss_pages=256, accesses=1200, seed=42))
        names = dict(enumerate(apps, start=1))
        result = machine.run_cluster(
            {pid: apps[name] for pid, name in names.items()},
            cores=2,
            failure_plan=[FailureEvent(ms(5), 0)],
        )
        artifact = profile_cluster(result, names, bench="cluster")
        assert artifact["servers"]["0"]["alive"] is False
        assert artifact["recovery"]["remapped_slabs"] > 0
        assert artifact["recovery"]["lost_pages"] == 0
        agent = result.machine.host_agent
        checked, mismatched = agent.verify_contents()
        assert checked > 0 and mismatched == 0


class TestScenariosProfile:
    @pytest.fixture(scope="class")
    def profile(self):
        return run_profile("scenarios", wss_pages=512, accesses=2400, cores=2, servers=2)

    def test_artifact_shape(self, profile):
        artifact, payloads = profile
        assert artifact["bench"] == "scenarios"
        assert artifact["engine"] == "scenario"
        assert len(payloads) == 3
        scenarios = set(artifact["config"]["scenarios"])
        assert scenarios == {"web-tier-zipf", "noisy-neighbor", "failover-under-load"}
        # Per-tenant rows keyed "<scenario>/<tenant>", gate-compatible.
        assert all("/" in key for key in artifact["apps"])
        for row in artifact["apps"].values():
            assert row["p50_us"] <= row["p95_us"] <= row["p99_us"]
            assert row["completion_s"] > 0
        assert {key.split("/")[0] for key in artifact["apps"]} == scenarios
        assert artifact["totals"].keys() == scenarios
        # The failure scenario exercises the fault path in the gate:
        # the crash must actually have fired (a server is down), not
        # been scheduled past the smoke run's end.
        assert any(
            not row["alive"]
            for key, row in artifact["servers"].items()
            if key.startswith("failover-under-load/")
        )
        assert artifact["totals"]["failover-under-load"]["unfired_timeline_events"] <= 1

    def test_deterministic(self, profile):
        artifact, _ = profile
        again, _ = run_profile("scenarios", wss_pages=512, accesses=2400, cores=2, servers=2)
        assert again["apps"] == artifact["apps"]
        assert again["servers"] == artifact["servers"]
        assert again["totals"] == artifact["totals"]

    def test_cli_scenarios_gate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        args = ["--profile", "scenarios", "--wss-pages", "512"]
        args += ["--accesses", "2400", "--cores", "2", "--servers", "2"]
        assert perf_main(["--out", str(out), *args]) == 0
        baseline = out / "BENCH_scenarios.json"
        assert baseline.exists()
        code = perf_main(
            ["--out", str(tmp_path / "second"), *args, "--baseline", str(baseline)]
        )
        assert code == 0
        assert "perf gate OK" in capsys.readouterr().out

    def test_gate_catches_scenario_regression(self, profile, tmp_path, capsys):
        artifact, _ = profile
        doctored = json.loads(json.dumps(artifact))
        for row in doctored["apps"].values():
            row["p95_us"] *= 0.5  # impossibly fast baseline
        baseline = write_artifact(doctored, tmp_path)
        args = ["--profile", "scenarios", "--wss-pages", "512", "--accesses", "2400"]
        args += ["--cores", "2", "--servers", "2"]
        code = perf_main(
            ["--out", str(tmp_path / "out"), *args, "--baseline", str(baseline)]
        )
        assert code == 1
        assert "PERF GATE FAILED" in capsys.readouterr().out


class TestControlProfile:
    @pytest.fixture(scope="class")
    def profile(self):
        return run_profile("control", wss_pages=1024, accesses=2667, cores=2)

    def test_artifact_shape(self, profile):
        artifact, ab = profile
        assert artifact["bench"] == "control"
        assert artifact["engine"] == "control"
        assert artifact["config"]["scenario"] == "phase-shift-governed"
        # One row per (arm, tenant), keyed "<arm>/<tenant>" so the
        # standard gate covers governed and static arms alike.
        arms = {key.split("/")[0] for key in artifact["apps"]}
        assert "governed" in arms
        assert any(arm.startswith("static-") for arm in arms)
        for row in artifact["apps"].values():
            assert row["p50_us"] <= row["p95_us"] <= row["p99_us"]
            assert row["completion_s"] > 0
        control = artifact["control"]
        assert set(control["hit_rates"]) == set(ab["arms"])
        assert control["epochs_fired"] > 0

    def test_governed_beats_best_static_in_gate_profile(self, profile):
        """Acceptance: the gated control profile proves the governor
        recovers hit rate after the phase shift while every static
        policy stays degraded."""
        artifact, _ = profile
        control = artifact["control"]
        assert control["governed_beats_static"], control
        assert control["governed_hit_rate"] > control["best_static_hit_rate"]
        assert control["decisions"], "the win must come from policy swaps"

    def test_deterministic(self, profile):
        artifact, _ = profile
        again, _ = run_profile("control", wss_pages=1024, accesses=2667, cores=2)
        assert again["apps"] == artifact["apps"]
        assert again["control"] == artifact["control"]

    def test_committed_baseline_proves_the_win(self):
        """BENCH_control_baseline.json must carry a governed win: the
        repo's own evidence cannot claim otherwise."""
        baseline = load_artifact("BENCH_control_baseline.json")
        assert baseline["control"]["governed_beats_static"] is True

    def test_cli_control_gate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        args = ["--profile", "control", "--wss-pages", "1024"]
        args += ["--accesses", "2400", "--cores", "2"]
        assert perf_main(["--out", str(out), *args]) == 0
        baseline = out / "BENCH_control.json"
        assert baseline.exists()
        code = perf_main(
            ["--out", str(tmp_path / "second"), *args, "--baseline", str(baseline)]
        )
        assert code == 0
        out_text = capsys.readouterr().out
        assert "perf gate OK" in out_text
        assert "governed hit rate" in out_text


#: Committed baselines live at the repository root.
REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("profile", list(PROFILES))
def test_profile_reproduces_committed_baseline(profile, tmp_path):
    """Each profile at its CI defaults reproduces its committed baseline.

    Simulated numbers are deterministic per seed, so the gated ``apps``
    and ``servers`` sections must match ``BENCH_<profile>_baseline.json``
    exactly — not merely within the gate's regression budget.
    """
    assert perf_main(["--profile", profile, "--out", str(tmp_path)]) == 0
    artifact = load_artifact(tmp_path / f"BENCH_{profile}.json")
    baseline = load_artifact(REPO_ROOT / f"BENCH_{profile}_baseline.json")
    assert artifact["bench"] == profile
    for section in ("apps", "servers"):
        assert artifact.get(section) == baseline.get(section), section
