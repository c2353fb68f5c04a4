"""The online control plane: telemetry, governor, balancer, and A/B runs."""

import json

import pytest

from repro import core
from repro.control import (
    BalancerSpec,
    ControlSpec,
    GovernorSpec,
    PolicyGovernor,
    SwappablePrefetcher,
    TelemetrySampler,
    TenantMemoryBalancer,
)
from repro.control.telemetry import EpochSample, TenantSignals
from repro.mem.page_cache import EagerFifoPolicy
from repro.mem.vmm import AccessKind
from repro.metrics.counters import PrefetchMetrics
from repro.scenarios import (
    Scenario,
    TenantSpec,
    aggregate_hit_rate,
    get_scenario,
    run_control_ab,
    run_scenario,
)
from repro.sim.machine import Machine, leap_config
from repro.workloads.base import materialize_columns
from repro.workloads.patterns import SequentialWorkload
from repro.workloads.phased import PhasedWorkload


class TestSpecs:
    def test_control_spec_round_trip(self):
        spec = ControlSpec(
            epoch_ms=2.5,
            governor=GovernorSpec(policies=("leap", "ghb"), min_dwell_epochs=2),
            balancer=BalancerSpec(step_fraction=0.05),
        )
        assert ControlSpec.from_dict(spec.to_dict()) == spec
        assert ControlSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_governor_only_round_trip(self):
        spec = ControlSpec(epoch_ms=1.0, governor=GovernorSpec())
        rebuilt = ControlSpec.from_dict(spec.to_dict())
        assert rebuilt.balancer is None
        assert rebuilt == spec

    def test_empty_control_spec_rejected(self):
        with pytest.raises(ValueError, match="governor"):
            ControlSpec(epoch_ms=1.0)

    def test_bad_governor_specs_rejected(self):
        with pytest.raises(ValueError):
            GovernorSpec(policies=())
        with pytest.raises(ValueError):
            GovernorSpec(policies=("leap", "leap"))
        with pytest.raises(ValueError):
            GovernorSpec(min_dwell_epochs=0)
        with pytest.raises(ValueError, match="stale_epochs"):
            GovernorSpec(min_dwell_epochs=5, stale_epochs=3)

    def test_bad_balancer_specs_rejected(self):
        with pytest.raises(ValueError):
            BalancerSpec(step_fraction=0.0)
        with pytest.raises(ValueError):
            BalancerSpec(floor_fraction=0.6, ceiling_fraction=0.5)

    def test_scenario_carries_control_through_dict(self):
        scenario = get_scenario("phase-shift-governed")
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt.control == scenario.control
        assert rebuilt.to_dict() == scenario.to_dict()


class TestPollutionSignal:
    def test_evicted_unused_counter_and_ratio(self):
        metrics = PrefetchMetrics()
        for vpn in range(4):
            metrics.record_issue((1, vpn), issued_at=0, arrival_at=10)
        metrics.record_hit((1, 0), now=20)
        metrics.record_evicted_unused((1, 1))
        metrics.record_evicted_unused((1, 2))
        assert metrics.evicted_unused == 2
        assert metrics.pollution_ratio == pytest.approx(0.5)

    def test_pollution_in_as_dict(self):
        data = PrefetchMetrics().as_dict()
        assert data["evicted_unused"] == 0
        assert data["pollution_ratio"] == 0.0

    def test_core_exports_the_page_cache_policy(self):
        assert core.EagerFifoPolicy is EagerFifoPolicy


def make_signals(pid, hits, majors, limit=100, core=0):
    return TenantSignals(
        pid=pid,
        core=core,
        accesses=hits + majors,
        hits=hits,
        major_faults=majors,
        p95_us=1.0,
        limit_pages=limit,
    )


def make_sample(epoch, tenants):
    return EpochSample(
        epoch=epoch,
        at_ns=epoch * 1_000_000,
        tenants=tenants,
        prefetch_issued=100,
        prefetch_hits=50,
        evicted_unused=10,
        faults=sum(s.faults for s in tenants.values()),
    )


class TestTenantSignals:
    def test_hit_rate_and_faults(self):
        signals = make_signals(1, hits=30, majors=10)
        assert signals.faults == 40
        assert signals.hit_rate == pytest.approx(0.75)
        assert make_signals(1, 0, 0).hit_rate == 0.0

    def test_sample_aggregates(self):
        sample = make_sample(
            1, {1: make_signals(1, 30, 10), 2: make_signals(2, 10, 30)}
        )
        assert sample.hit_rate == pytest.approx(0.5)
        assert sample.pollution_ratio == pytest.approx(0.1)
        assert sample.coverage == pytest.approx(50 / 80)


class FakeSwappable:
    """Policy router stub for governor unit tests."""

    def __init__(self, policies, default):
        self.policies = tuple(policies)
        self.default = default
        self._active = {}
        self.swaps = 0

    def policy_of(self, pid):
        return self._active.get(pid, self.default)

    def set_policy(self, pid, policy):
        assert policy in self.policies
        changed = self.policy_of(pid) != policy
        self._active[pid] = policy
        self.swaps += changed
        return changed


class TestPolicyGovernor:
    def make(self, **overrides):
        kwargs = dict(
            policies=("leap", "ghb", "readahead"),
            min_dwell_epochs=2,
            score_margin=0.1,
            probe_score=0.5,
            ewma_alpha=0.5,
            min_faults=8,
            stale_epochs=8,
        )
        kwargs.update(overrides)
        spec = GovernorSpec(**kwargs)
        swappable = FakeSwappable(spec.policies, "leap")
        return PolicyGovernor(swappable, spec), swappable

    def test_good_policy_is_left_alone(self):
        governor, swappable = self.make()
        for epoch in range(1, 10):
            governor.on_epoch(make_sample(epoch, {1: make_signals(1, 90, 10)}))
        assert swappable.policy_of(1) == "leap"
        assert governor.decisions == []

    def test_collapse_probes_in_declared_order(self):
        governor, swappable = self.make()
        for epoch in range(1, 4):
            governor.on_epoch(make_sample(epoch, {1: make_signals(1, 0, 100)}))
        assert swappable.policy_of(1) == "ghb"
        assert governor.decisions[0].reason == "probe"
        assert governor.decisions[0].to_policy == "ghb"

    def test_min_dwell_delays_any_swap(self):
        governor, swappable = self.make(min_dwell_epochs=4)
        for epoch in range(1, 4):
            governor.on_epoch(make_sample(epoch, {1: make_signals(1, 0, 100)}))
        assert swappable.policy_of(1) == "leap"  # dwell not served yet
        governor.on_epoch(make_sample(4, {1: make_signals(1, 0, 100)}))
        assert swappable.policy_of(1) == "ghb"

    def test_quiet_windows_are_not_scored(self):
        governor, swappable = self.make()
        for epoch in range(1, 10):
            governor.on_epoch(make_sample(epoch, {1: make_signals(1, 0, 3)}))
        # 3 faults per epoch is under min_faults: no evidence, no swap.
        assert swappable.policy_of(1) == "leap"
        assert governor.decisions == []

    def test_exploit_returns_to_best_scored_policy(self):
        governor, swappable = self.make(
            policies=("leap", "ghb"), stale_epochs=20
        )
        # leap earns a strong score first.
        for epoch in range(1, 5):
            governor.on_epoch(make_sample(epoch, {1: make_signals(1, 90, 10)}))
        # One collapsed window halves leap's EWMA under probe_score:
        # the governor auditions ghb...
        governor.on_epoch(make_sample(5, {1: make_signals(1, 0, 100)}))
        assert swappable.policy_of(1) == "ghb"
        # ...which scores mediocre, so after its dwell the governor
        # exploits back to the better-scored incumbent.
        for epoch in range(6, 8):
            governor.on_epoch(make_sample(epoch, {1: make_signals(1, 30, 70)}))
        assert swappable.policy_of(1) == "leap"
        last = governor.decisions[-1]
        assert last.reason == "exploit"
        assert last.to_policy == "leap"
        assert last.to_score > last.from_score + governor.spec.score_margin

    def test_stale_scores_get_reprobed(self):
        governor, swappable = self.make(stale_epochs=4)
        # Collapse immediately: probe walks ghb then readahead, all bad.
        epoch = 0
        for _ in range(20):
            epoch += 1
            governor.on_epoch(make_sample(epoch, {1: make_signals(1, 0, 100)}))
        # With every score collapsing and staleness expiring old
        # auditions, the governor keeps cycling probes rather than
        # settling on a policy it has no fresh evidence for.
        probe_targets = {
            decision.to_policy
            for decision in governor.decisions
            if decision.reason == "probe"
        }
        assert {"ghb", "readahead"} <= probe_targets
        assert len(governor.decisions) >= 3

    def test_per_pid_independence(self):
        governor, swappable = self.make()
        for epoch in range(1, 6):
            governor.on_epoch(
                make_sample(
                    epoch,
                    {1: make_signals(1, 90, 10), 2: make_signals(2, 0, 100)},
                )
            )
        assert swappable.policy_of(1) == "leap"
        assert swappable.policy_of(2) != "leap"


class FakeMachine:
    def __init__(self):
        self.limits = {}
        self.calls = []

    def set_memory_limit(self, pid, limit_pages, now=0):
        self.limits[pid] = limit_pages
        self.calls.append((pid, limit_pages, now))
        return 0


class TestTenantMemoryBalancer:
    def make(self, **overrides):
        spec = BalancerSpec(
            step_fraction=0.1,
            floor_fraction=0.25,
            ceiling_fraction=0.75,
            pressure_gap=0.5,
            **overrides,
        )
        machine = FakeMachine()
        balancer = TenantMemoryBalancer(
            machine, spec, wss_pages={1: 1000, 2: 1000}
        )
        return balancer, machine

    def test_moves_budget_toward_pressure(self):
        balancer, machine = self.make()
        sample = make_sample(
            1,
            {
                1: make_signals(1, hits=0, majors=500, limit=500),
                2: make_signals(2, hits=50, majors=5, limit=500),
            },
        )
        moves = balancer.on_epoch(sample)
        assert len(moves) == 1
        move = moves[0]
        assert move.receiver_pid == 1 and move.donor_pid == 2
        assert machine.limits == {2: 450, 1: 550}
        assert move.pages == 50

    def test_gap_hysteresis_blocks_comparable_pressures(self):
        balancer, machine = self.make()
        sample = make_sample(
            1,
            {
                1: make_signals(1, hits=0, majors=110, limit=500),
                2: make_signals(2, hits=0, majors=100, limit=500),
            },
        )
        assert balancer.on_epoch(sample) == []
        assert machine.calls == []

    def test_floor_and_ceiling_bind(self):
        balancer, machine = self.make()
        # Donor sits exactly on its floor (250 of wss 1000): no move.
        sample = make_sample(
            1,
            {
                1: make_signals(1, hits=0, majors=500, limit=600),
                2: make_signals(2, hits=0, majors=0, limit=250),
            },
        )
        assert balancer.on_epoch(sample) == []
        # Receiver at its ceiling (750): no move either.
        sample = make_sample(
            2,
            {
                1: make_signals(1, hits=0, majors=500, limit=750),
                2: make_signals(2, hits=0, majors=0, limit=600),
            },
        )
        assert balancer.on_epoch(sample) == []

    def test_step_clamped_to_floor_distance(self):
        balancer, machine = self.make()
        sample = make_sample(
            1,
            {
                1: make_signals(1, hits=0, majors=500, limit=500),
                2: make_signals(2, hits=0, majors=0, limit=260),
            },
        )
        moves = balancer.on_epoch(sample)
        assert moves[0].pages == 10  # 260 - floor(250), not 10% of 260... clamped
        assert machine.limits[2] == 250

    def test_single_tenant_never_balances(self):
        spec = BalancerSpec()
        machine = FakeMachine()
        balancer = TenantMemoryBalancer(machine, spec, wss_pages={1: 1000})
        sample = make_sample(1, {1: make_signals(1, 0, 500, limit=500)})
        assert balancer.on_epoch(sample) == []


class TestSwappablePrefetcher:
    def make_machine(self):
        machine = Machine(leap_config(seed=7))
        swappable = SwappablePrefetcher(
            machine, ("leap", "readahead", "ghb"), default="leap"
        )
        machine.install_prefetcher(swappable)
        return machine, swappable

    def test_unknown_policy_rejected(self):
        machine, swappable = self.make_machine()
        with pytest.raises(ValueError):
            swappable.set_policy(1, "warp-drive")
        with pytest.raises(ValueError):
            SwappablePrefetcher(machine, ("leap",), default="ghb")

    def test_routes_by_pid(self):
        machine, swappable = self.make_machine()
        machine.add_process(1, wss_pages=64, limit_pages=16, core=0)
        machine.add_process(2, wss_pages=64, limit_pages=16, core=1)
        swappable.set_policy(2, "ghb")
        assert swappable.policy_of(1) == "leap"
        assert swappable.policy_of(2) == "ghb"
        assert swappable.swaps == 1
        # Re-setting the same policy is a no-op, not a swap.
        assert swappable.set_policy(2, "ghb") is False
        assert swappable.swaps == 1

    def run_to_warm_cache(self, machine):
        vmm = machine.vmm
        now = 0
        for vpn in range(128):  # materialize + overflow the cgroup
            outcome = vmm.access(1, vpn, now)
            now += 1_000 + outcome.latency_ns
        for vpn in range(80):  # rescan: leap prefetches ahead
            outcome = vmm.access(1, vpn, now)
            now += 1_000 + outcome.latency_ns
        return now

    def test_hot_swap_preserves_page_cache_contents(self):
        machine, swappable = self.make_machine()
        machine.add_process(1, wss_pages=128, limit_pages=32, core=0)
        now = self.run_to_warm_cache(machine)
        cached = set(machine.cache.entries)
        assert cached, "the warm-up must leave prefetched pages in cache"
        swapped = swappable.set_policy(1, "readahead")
        assert swapped
        assert set(machine.cache.entries) == cached
        # A page prefetched under the old policy still serves its hit.
        key = sorted(cached)[0]
        later = now + 10_000_000
        outcome = machine.vmm.access(1, key[1], later)
        assert outcome.kind in (
            AccessKind.CACHE_HIT,
            AccessKind.CACHE_HIT_INFLIGHT,
        )
        assert outcome.served_by_prefetch

    def test_all_policies_observe_faults(self):
        machine, swappable = self.make_machine()
        machine.add_process(1, wss_pages=128, limit_pages=32, core=0)
        self.run_to_warm_cache(machine)
        # The inactive GHB instance saw every fault (warm standby).
        ghb = swappable.instances["ghb"]
        assert ghb.memory_footprint > 0

    def test_reset_fans_out(self):
        machine, swappable = self.make_machine()
        machine.add_process(1, wss_pages=128, limit_pages=32, core=0)
        self.run_to_warm_cache(machine)
        machine.reset_measurements()
        assert swappable.instances["ghb"].memory_footprint == 0


class TestEpochHook:
    def test_epochs_fire_on_schedule(self):
        machine = Machine(leap_config(seed=3))
        fired = []

        def hook(at, scheduler):
            fired.append(at)

        result = machine.run_concurrent(
            {1: SequentialWorkload(512, 4_000, seed=1)},
            cores=1,
            epoch_ns=1_000_000,
            on_epoch=hook,
        )
        assert result.makespan_ns > 2_000_000
        assert len(fired) >= 2
        deltas = {b - a for a, b in zip(fired, fired[1:])}
        assert deltas == {1_000_000}

    def test_sampler_windows_sum_to_totals(self):
        machine = Machine(leap_config(seed=3))
        sampler = TelemetrySampler(machine)
        samples = []

        def hook(at, scheduler):
            samples.append(sampler.sample(at, scheduler.drivers))

        result = machine.run_concurrent(
            {1: SequentialWorkload(512, 4_000, seed=1)},
            cores=1,
            epoch_ns=1_000_000,
            on_epoch=hook,
        )
        summary = result.processes[1]
        hits_total = sum(sample.tenants[1].hits for sample in samples)
        majors_total = sum(sample.tenants[1].major_faults for sample in samples)
        hits_run = sum(
            summary.kind_counts[kind]
            for kind in (AccessKind.CACHE_HIT, AccessKind.CACHE_HIT_INFLIGHT)
        )
        # Epoch windows tile the run up to the tail after the last epoch.
        assert hits_total <= hits_run
        assert majors_total <= summary.kind_counts[AccessKind.MAJOR_FAULT]
        assert hits_run - hits_total < hits_run * 0.5
        for sample in samples:
            assert 0.0 <= sample.tenants[1].hit_rate <= 1.0

    def test_bad_epoch_rejected(self):
        machine = Machine(leap_config(seed=3))
        with pytest.raises(ValueError, match="epoch_ns"):
            machine.run_concurrent(
                {1: SequentialWorkload(64, 100, seed=1)},
                cores=1,
                epoch_ns=0,
                on_epoch=lambda at, s: None,
            )


class TestPhasedWorkload:
    def test_phase_counts_split_budget(self):
        workload = PhasedWorkload(
            256,
            1_000,
            phases=[
                {"kind": "sequential"},
                {"kind": "permloop", "fraction": 3.0},
            ],
        )
        assert workload.phase_accesses == [250, 750]
        assert sum(workload.phase_accesses) == 1_000
        assert len(materialize_columns(workload)[0]) == 1_000

    def test_permloop_repeats_a_permutation(self):
        workload = PhasedWorkload(
            64, 128, phases=[{"kind": "permloop", "loop_pages": 32}]
        )
        vpns = materialize_columns(workload)[0].tolist()
        lap = vpns[:32]
        assert sorted(lap) == list(range(32))  # a permutation...
        assert lap != list(range(32))  # ...not the identity
        assert vpns[32:64] == lap  # and it loops exactly

    def test_deterministic_per_seed(self):
        def trace(seed):
            workload = PhasedWorkload(
                128,
                400,
                phases=[{"kind": "noisy-sequential", "noise": 0.3}, {"kind": "random"}],
                seed=seed,
            )
            return materialize_columns(workload)[0].tolist()

        assert trace(1) == trace(1)
        assert trace(1) != trace(2)

    def test_rejects_bad_phases(self):
        with pytest.raises(ValueError):
            PhasedWorkload(64, 100, phases=[])
        with pytest.raises(ValueError):
            PhasedWorkload(64, 100, phases=[{"kind": "interpretive-dance"}])
        with pytest.raises(ValueError):
            PhasedWorkload(64, 100, phases=[{"kind": "sequential", "fraction": -1}])
        with pytest.raises(ValueError):
            list(
                PhasedWorkload(
                    64, 100, phases=[{"kind": "permloop", "loop_pages": 1_000}]
                ).columnar_blocks()
            )


SMOKE = dict(wss_pages=256, total_accesses=2_000)


class TestGovernedRuns:
    def test_governed_payload_reports_control_sections(self):
        payload = run_scenario("phase-shift-governed", seed=42, cores=2, **SMOKE)
        assert payload["config"]["governed"] is True
        control = payload["control"]
        assert control["epochs_fired"] == len(control["epochs"])
        assert control["epochs"], "epochs must fire at smoke scale"
        assert set(control["policies"]) == {"phased"}
        for row in control["epochs"]:
            assert set(row["tenants"]) == {"phased"}
            assert 0.0 <= row["tenants"]["phased"]["hit_rate"] <= 1.0
            assert "policy" in row["tenants"]["phased"]

    def test_governor_beats_best_static_on_phase_shift(self):
        """The acceptance criterion, at smoke scale."""
        payload = run_control_ab("phase-shift-governed", seed=42, cores=2, **SMOKE)
        summary = payload["summary"]
        assert summary["governed_beats_static"], summary
        assert summary["governed_hit_rate"] > summary["best_static_hit_rate"]
        governed = payload["arms"]["governed"]
        assert governed["control"]["decisions"], "the win must come from swaps"

    def test_governed_run_json_byte_identical(self):
        runs = [
            json.dumps(
                run_scenario("phase-shift-governed", seed=42, cores=2, **SMOKE),
                indent=2,
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_full_control_plane_json_byte_identical(self):
        """Governor + balancer decisions pinned under a fixed seed."""
        runs = [
            json.dumps(
                run_scenario("adaptive-colocation", seed=42, cores=2, **SMOKE),
                indent=2,
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_balancer_scenario_moves_budget_within_bounds(self):
        payload = run_scenario("noisy-neighbor-balanced", seed=42, cores=2, **SMOKE)
        control = payload["control"]
        assert control["rebalances"], "pressure imbalance must trigger moves"
        scenario = get_scenario("noisy-neighbor-balanced", **SMOKE)
        spec = scenario.control.balancer
        floors = {
            tenant.name: max(2, int(tenant.wss_pages * spec.floor_fraction))
            for tenant in scenario.tenants
        }
        ceilings = {
            tenant.name: int(tenant.wss_pages * spec.ceiling_fraction)
            for tenant in scenario.tenants
        }
        for row in control["epochs"]:
            for name, signals in row["tenants"].items():
                assert signals["limit_pages"] >= floors[name]
                assert signals["limit_pages"] <= max(
                    ceilings[name], floors[name] + 1
                )

    def test_ab_requires_a_control_plane(self):
        with pytest.raises(ValueError, match="control"):
            run_control_ab("web-tier-zipf", seed=42, **SMOKE)

    def test_ab_on_cluster_engine(self):
        payload = run_control_ab(
            "phase-shift-governed",
            seed=42,
            cores=2,
            servers=2,
            wss_pages=256,
            total_accesses=1_500,
        )
        assert payload["arms"]["governed"]["config"]["engine"] == "cluster"
        assert "summary" in payload

    def test_aggregate_hit_rate_definition(self):
        payload = run_scenario("phase-shift-governed", seed=42, cores=2, **SMOKE)
        hits = sum(row["hits"] for row in payload["tenants"].values())
        faults = sum(row["faults"] for row in payload["tenants"].values())
        assert aggregate_hit_rate(payload) == pytest.approx(hits / faults)

    def test_static_override_disables_nothing_but_prefetcher(self):
        """prefetcher= override keeps the control plane running."""
        payload = run_scenario(
            "phase-shift-governed", seed=42, cores=2, prefetcher="ghb", **SMOKE
        )
        assert payload["config"]["governed"] is True
        assert payload["config"]["prefetcher"] == "ghb"

    def test_governed_custom_scenario_with_balancer_only(self):
        scenario = Scenario(
            name="balance-only",
            description="two tenants, balancer only",
            tenants=(
                TenantSpec(name="hot", workload="random", wss_pages=256),
                TenantSpec(name="cold", workload="zipfian", wss_pages=256),
            ),
            total_accesses=2_000,
            control=ControlSpec(epoch_ms=1.0, balancer=BalancerSpec()),
        )
        payload = run_scenario(scenario, seed=42, cores=2)
        control = payload["control"]
        assert "decisions" not in control  # no governor configured
        assert "limits" in control

    def test_ab_rejects_empty_statics(self):
        with pytest.raises(ValueError, match="static arm"):
            run_control_ab("phase-shift-governed", statics=(), **SMOKE)

    def test_sweep_strips_the_control_plane(self):
        from repro.scenarios import sweep_scenarios

        payload = sweep_scenarios(
            ["phase-shift-governed"],
            cores=(2,),
            servers=(2,),
            prefetchers=("leap", "ghb"),
            wss_pages=256,
            total_accesses=1_500,
        )
        # The prefetcher axis is a static comparison: the governor must
        # not swap away from the labeled arm, so the arms diverge.
        rows = {run["prefetcher"]: run["tenants"]["phased"] for run in payload["runs"]}
        assert rows["leap"]["hit_rate"] != rows["ghb"]["hit_rate"]


class TestReviewRegressions:
    """Pins for defects found in review: stale-score blending, floored
    donors stalling the balancer, and post-swap hit attribution."""

    def test_stale_score_is_forgotten_not_blended(self):
        kwargs = dict(
            policies=("leap", "ghb"),
            min_dwell_epochs=2,
            ewma_alpha=0.5,
            stale_epochs=3,
            min_faults=8,
        )
        spec = GovernorSpec(**kwargs)
        swappable = FakeSwappable(spec.policies, "leap")
        governor = PolicyGovernor(swappable, spec)
        epoch = 0
        # leap earns 0.9, then collapses -> probe ghb.
        for _ in range(3):
            epoch += 1
            governor.on_epoch(make_sample(epoch, {1: make_signals(1, 90, 10)}))
        while swappable.policy_of(1) == "leap":
            epoch += 1
            governor.on_epoch(make_sample(epoch, {1: make_signals(1, 0, 100)}))
        # ghb holds long enough for leap's old 0.9 to expire...
        for _ in range(spec.stale_epochs + 2):
            epoch += 1
            governor.on_epoch(make_sample(epoch, {1: make_signals(1, 60, 40)}))
        assert "leap" not in governor.scores(1)
        # ...then ghb collapses and leap is re-probed: its first fresh
        # window (0.1) must be its score verbatim, not blended with the
        # forgotten 0.9 from the old regime.
        while swappable.policy_of(1) == "ghb":
            epoch += 1
            governor.on_epoch(make_sample(epoch, {1: make_signals(1, 0, 100)}))
        assert swappable.policy_of(1) == "leap"
        epoch += 1
        governor.on_epoch(make_sample(epoch, {1: make_signals(1, 10, 90)}))
        assert governor.scores(1)["leap"] == pytest.approx(0.1)

    def test_floored_donor_does_not_stall_the_balancer(self):
        spec = BalancerSpec(
            step_fraction=0.1,
            floor_fraction=0.25,
            ceiling_fraction=0.75,
            pressure_gap=0.5,
        )
        machine = FakeMachine()
        balancer = TenantMemoryBalancer(
            machine, spec, wss_pages={1: 1000, 2: 1000, 3: 1000}
        )
        # Tenant 1 is the idlest but sits on its floor; tenant 2 has
        # slack; tenant 3 thrashes.  The move must come from tenant 2.
        sample = make_sample(
            1,
            {
                1: make_signals(1, hits=0, majors=0, limit=250),
                2: make_signals(2, hits=0, majors=10, limit=500),
                3: make_signals(3, hits=0, majors=500, limit=500),
            },
        )
        moves = balancer.on_epoch(sample)
        assert len(moves) == 1
        assert moves[0].donor_pid == 2
        assert moves[0].receiver_pid == 3

    def test_ceilinged_receiver_does_not_mask_next_candidate(self):
        spec = BalancerSpec(
            step_fraction=0.1,
            floor_fraction=0.25,
            ceiling_fraction=0.75,
            pressure_gap=0.5,
        )
        machine = FakeMachine()
        balancer = TenantMemoryBalancer(
            machine, spec, wss_pages={1: 1000, 2: 1000, 3: 1000}
        )
        # Tenant 3 is the most pressured but already at its ceiling;
        # tenant 2 still has headroom and real pressure.
        sample = make_sample(
            1,
            {
                1: make_signals(1, hits=0, majors=0, limit=500),
                2: make_signals(2, hits=0, majors=300, limit=500),
                3: make_signals(3, hits=0, majors=500, limit=750),
            },
        )
        moves = balancer.on_epoch(sample)
        assert len(moves) == 1
        assert moves[0].receiver_pid == 2
        assert moves[0].donor_pid == 1

    def test_prefetch_hit_routed_to_issuing_policy(self):
        machine = Machine(leap_config(seed=7))
        swappable = SwappablePrefetcher(machine, ("leap", "ghb"), default="leap")

        class Recorder:
            def __init__(self, picks):
                self.picks = picks
                self.hits = []

            def candidates(self, key, now):
                return list(self.picks)

            def on_prefetch_hit(self, key, now):
                self.hits.append(key)

            def on_fault(self, key, now, cache_hit):
                pass

        issuer = Recorder([(1, 5), (1, 6)])
        bystander = Recorder([])
        swappable.instances["leap"] = issuer
        swappable.instances["ghb"] = bystander
        assert swappable.candidates((1, 4), 0) == [(1, 5), (1, 6)]
        swappable.set_policy(1, "ghb")
        # The hit lands after the swap: credit the issuer, not ghb.
        swappable.on_prefetch_hit((1, 5), 100)
        assert issuer.hits == [(1, 5)]
        assert bystander.hits == []
        # Unknown keys (e.g. issued before a reset) fall back to active.
        swappable.on_prefetch_hit((1, 99), 200)
        assert bystander.hits == [(1, 99)]

    def test_carryover_eviction_not_counted_as_pollution(self):
        metrics = PrefetchMetrics()
        metrics.record_issue((1, 0), issued_at=0, arrival_at=10)
        # A page issued before this window opened (not outstanding).
        metrics.record_evicted_unused((1, 77))
        assert metrics.evicted_unused == 0
        metrics.record_evicted_unused((1, 0))
        assert metrics.evicted_unused == 1
        assert metrics.pollution_ratio == pytest.approx(1.0)

    def test_hit_kinds_single_definition(self):
        from repro.mem.vmm import PREFETCH_HIT_KINDS

        assert PREFETCH_HIT_KINDS == (
            AccessKind.CACHE_HIT,
            AccessKind.CACHE_HIT_INFLIGHT,
        )
