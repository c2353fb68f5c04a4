"""Tests for the multi-tenant scenario engine."""

import pytest

from repro.scenarios import (
    ArrivalSpec,
    FailureSpec,
    MemoryPhase,
    OpenLoopWorkload,
    Scenario,
    TenantSpec,
    build_tenant_workloads,
    get_scenario,
    list_scenarios,
    run_scenario,
    scenario_names,
    sweep_scenarios,
)
from repro.sim.rng import SimRandom
from repro.workloads.base import materialize_columns
from repro.workloads.patterns import ZipfianWorkload

SMOKE = dict(wss_pages=256, total_accesses=1_500)


def smoke_scenario(**overrides) -> Scenario:
    defaults = dict(
        name="smoke",
        description="two tenants",
        tenants=(
            TenantSpec(name="a", workload="zipfian", wss_pages=256, params={"skew": 0.9}),
            TenantSpec(name="b", workload="sequential", wss_pages=256),
        ),
        total_accesses=1_500,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestSpec:
    def test_registry_has_at_least_eight(self):
        assert len(scenario_names()) >= 8
        assert {"web-tier-zipf", "noisy-neighbor", "kitchen-sink"} <= set(
            scenario_names()
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("does-not-exist")

    @pytest.mark.parametrize("name", sorted({"web-tier-zipf", "kitchen-sink"}))
    def test_dict_round_trip(self, name):
        scenario = get_scenario(name, **SMOKE)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_every_builtin_round_trips_and_builds(self):
        for scenario in list_scenarios(**SMOKE):
            assert Scenario.from_dict(scenario.to_dict()) == scenario
            workloads, names = build_tenant_workloads(scenario, seed=3)
            assert len(workloads) == len(scenario.tenants)
            assert set(names.values()) == {t.name for t in scenario.tenants}

    def test_duplicate_tenant_names_rejected(self):
        tenant = TenantSpec(name="a", workload="random", wss_pages=64)
        with pytest.raises(ValueError, match="duplicate"):
            Scenario(name="x", description="", tenants=(tenant, tenant))

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            TenantSpec(name="a", workload="sap-hana", wss_pages=64)

    def test_bad_failure_action_rejected(self):
        with pytest.raises(ValueError, match="unknown failure action"):
            FailureSpec(at_ms=1.0, server_id=0, action="explode")

    def test_popularity_shares_are_zipf_ranked(self):
        scenario = get_scenario("web-tier-zipf", **SMOKE)
        shares = scenario.tenant_shares()
        ordered = [shares[t.name] for t in scenario.tenants]
        assert ordered == sorted(ordered, reverse=True)
        assert sum(ordered) == pytest.approx(1.0)

    def test_budget_split_respects_explicit_counts(self):
        scenario = smoke_scenario(
            tenants=(
                TenantSpec(name="a", workload="random", wss_pages=64),
                TenantSpec(name="b", workload="random", wss_pages=64, accesses=123),
            )
        )
        counts = scenario.tenant_accesses()
        assert counts["b"] == 123
        assert counts["a"] == 1_500  # sole claimant of the shared budget

    def test_trace_tenants_do_not_dilute_the_budget(self):
        """A trace tenant's length is fixed by its recording, so it
        must not claim (and then discard) a share of total_accesses."""
        scenario = smoke_scenario(
            tenants=(
                TenantSpec(name="live", workload="random", wss_pages=64),
                TenantSpec(
                    name="replay",
                    workload="trace",
                    wss_pages=64,
                    params={"path": "unused.trace"},
                ),
            )
        )
        counts = scenario.tenant_accesses()
        assert counts["live"] == 1_500  # full budget, not half
        assert counts["replay"] == 0  # determined by the recording


class TestArrivals:
    def test_gaps_alternate_phases(self):
        spec = ArrivalSpec(
            think_ns=1_000,
            burst_think_ns=10,
            burst_accesses=(5, 5),
            calm_accesses=(5, 5),
            jitter=False,
        )
        gaps = spec.gaps(SimRandom(1, "t"))
        window = [next(gaps) for _ in range(20)]
        assert window == ([1_000] * 5 + [10] * 5) * 2

    def test_jittered_gaps_have_phase_means(self):
        spec = ArrivalSpec(
            think_ns=2_000,
            burst_think_ns=100,
            burst_accesses=(500, 500),
            calm_accesses=(500, 500),
        )
        gaps = spec.gaps(SimRandom(1, "t"))
        calm = [next(gaps) for _ in range(500)]
        burst = [next(gaps) for _ in range(500)]
        assert 1_500 < sum(calm) / 500 < 2_500
        assert 50 < sum(burst) / 500 < 150

    def test_open_loop_retimes_but_preserves_pages(self):
        inner = ZipfianWorkload(128, 400, seed=5, write_fraction=0.2)
        wrapped = OpenLoopWorkload(inner, ArrivalSpec(), seed=5)
        vpn, is_write, think_ns = materialize_columns(inner)
        re_vpn, re_is_write, re_think_ns = materialize_columns(wrapped)
        assert re_vpn.tolist() == vpn.tolist()
        assert re_is_write.tolist() == is_write.tolist()
        assert re_think_ns.tolist() != think_ns.tolist()

    def test_bad_phase_range_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(burst_accesses=(0, 5))


class TestRunner:
    def test_flat_run_produces_tenant_rows(self):
        payload = run_scenario(smoke_scenario(), cores=2, seed=3)
        assert payload["config"]["engine"] == "concurrent"
        assert set(payload["tenants"]) == {"a", "b"}
        for row in payload["tenants"].values():
            assert row["p50_us"] <= row["p95_us"] <= row["p99_us"]
            assert 0.0 <= row["hit_rate"] <= 1.0
            assert row["accesses"] > 0
        assert payload["totals"]["accesses"] == sum(
            row["accesses"] for row in payload["tenants"].values()
        )

    def test_failure_scenario_forces_cluster(self):
        scenario = smoke_scenario(
            total_accesses=3_000,
            failures=(FailureSpec(at_ms=1.0, server_id=0),),
        )
        payload = run_scenario(scenario, cores=2, seed=3)
        assert payload["config"]["engine"] == "cluster"
        assert payload["servers"]["0"]["alive"] is False
        assert payload["recovery"]["lost_pages"] == 0

    def test_unfired_timeline_events_are_surfaced(self):
        """A phase scheduled past the run's end must be reported, not
        silently dropped (short smoke runs would otherwise lose the
        scenario's defining feature)."""
        late = smoke_scenario(
            memory_schedule=(MemoryPhase(at_ms=10_000.0, memory_fraction=0.25),),
        )
        payload = run_scenario(late, cores=2, seed=3)
        assert payload["totals"]["unfired_timeline_events"] == 1
        early = smoke_scenario(
            total_accesses=3_000,
            memory_schedule=(MemoryPhase(at_ms=0.5, memory_fraction=0.25),),
        )
        payload = run_scenario(early, cores=2, seed=3)
        assert payload["totals"]["unfired_timeline_events"] == 0

    def test_memory_schedule_increases_fault_pressure(self):
        base = smoke_scenario(total_accesses=3_000, memory_fraction=0.8)
        squeezed = smoke_scenario(
            total_accesses=3_000,
            memory_fraction=0.8,
            memory_schedule=(MemoryPhase(at_ms=0.5, memory_fraction=0.25),),
        )
        calm = run_scenario(base, cores=2, seed=3)
        tight = run_scenario(squeezed, cores=2, seed=3)
        assert tight["totals"]["faults"] > calm["totals"]["faults"]

    def test_prefetcher_override_changes_behaviour(self):
        scenario = get_scenario("stride-adversary", **SMOKE)
        leap = run_scenario(scenario, cores=2, seed=3, prefetcher="leap")
        none = run_scenario(scenario, cores=2, seed=3, prefetcher="none")
        assert leap["config"]["prefetcher"] == "leap"
        hit = lambda p: max(r["hit_rate"] for r in p["tenants"].values())  # noqa: E731
        assert hit(leap) > hit(none)

    def test_unknown_prefetcher_rejected(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            run_scenario(smoke_scenario(), prefetcher="psychic")

    def test_negative_servers_rejected(self):
        """servers=-1 must not silently bypass the cluster promotion
        and drop a failure scenario's whole timeline."""
        scenario = smoke_scenario(failures=(FailureSpec(at_ms=1.0, server_id=0),))
        with pytest.raises(ValueError, match="servers must be >= 0"):
            run_scenario(scenario, cores=2, servers=-1, seed=3)

    def test_failure_outside_cluster_rejected_cleanly(self):
        """A failure timeline naming a server the cluster does not have
        must fail up front, not as a KeyError mid-run."""
        scenario = smoke_scenario(failures=(FailureSpec(at_ms=1.0, server_id=5),))
        with pytest.raises(ValueError, match="servers 0..2"):
            run_scenario(scenario, cores=2, servers=3, seed=3)

    def test_scale_kwargs_rejected_for_built_scenarios(self):
        """Scale overrides only apply to named scenarios; silently
        ignoring them for a built Scenario would mislabel results."""
        with pytest.raises(ValueError, match="given by name"):
            run_scenario(smoke_scenario(), wss_pages=128)
        with pytest.raises(ValueError, match="given by name"):
            sweep_scenarios([smoke_scenario()], servers=(2,), total_accesses=900)

    def test_sweep_grid_shape(self):
        payload = sweep_scenarios(
            ["web-tier-zipf"],
            cores=(2,),
            servers=(2, 3),
            prefetchers=("leap", "readahead"),
            seed=3,
            wss_pages=256,
            total_accesses=1_200,
        )
        assert len(payload["runs"]) == 1 * 1 * 2 * 2
        seen = {(r["cores"], r["servers"], r["prefetcher"]) for r in payload["runs"]}
        assert seen == {
            (2, 2, "leap"),
            (2, 2, "readahead"),
            (2, 3, "leap"),
            (2, 3, "readahead"),
        }

    def test_sweep_rejects_flat_grid(self):
        with pytest.raises(ValueError, match="servers must be >= 1"):
            sweep_scenarios(["web-tier-zipf"], servers=(0,))

    def test_sweep_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            sweep_scenarios([])

    def test_trace_tenant_replays_recording(self, tmp_path):
        from repro.trace.capture import capture_workload

        inner = ZipfianWorkload(128, 600, seed=11)
        path = tmp_path / "recorded.rtrace"
        capture_workload(inner, path)
        scenario = Scenario(
            name="replay",
            description="recorded traffic",
            tenants=(
                TenantSpec(
                    name="replayed",
                    workload="trace",
                    wss_pages=128,
                    params={"path": str(path)},
                ),
            ),
            total_accesses=600,
        )
        payload = run_scenario(scenario, cores=1, seed=3)
        assert payload["tenants"]["replayed"]["accesses"] == 600

    def test_trace_tenant_requires_path(self):
        scenario = Scenario(
            name="broken",
            description="",
            tenants=(TenantSpec(name="t", workload="trace", wss_pages=128),),
        )
        with pytest.raises(ValueError, match="params\\['path'\\]"):
            build_tenant_workloads(scenario, seed=1)


class TestResizeLimit:
    def test_resize_limit_reclaims_down(self):
        from repro.sim.machine import Machine, leap_config

        machine = Machine(leap_config(seed=1))
        machine.add_process(1, wss_pages=256, limit_pages=128)
        for vpn in range(128):
            machine.vmm.access(1, vpn, now=vpn * 1_000)
        process = machine.vmm.process(1)
        assert process.cgroup.charged_pages > 32
        reclaimed = machine.set_memory_limit(1, 32, now=1_000_000)
        assert reclaimed > 0
        assert process.cgroup.charged_pages <= 32
        assert process.cgroup.limit_pages == 32

    def test_grow_is_free(self):
        from repro.sim.machine import Machine, leap_config

        machine = Machine(leap_config(seed=1))
        machine.add_process(1, wss_pages=64, limit_pages=8)
        assert machine.set_memory_limit(1, 64, now=0) == 0
        assert machine.vmm.process(1).cgroup.limit_pages == 64
