"""The runtime invariant sanitizer: zero drift, loud corruption.

Two contracts under test.  First, the sanitizer (``REPRO_SANITIZE=1``)
*observes, never perturbs*: a sanitized run's simulated metrics are
byte-identical to the plain run on either engine, including the fig13
smoke artifact.
Second, each invariant family actually fires: corrupting the page
table/LRU pairing, the cgroup ledger, the completion queue, or a slab
raises :class:`InvariantViolation` naming the disagreement.
"""

import dataclasses
import json

import pytest

from repro.analysis.sanitize import (
    InvariantViolation,
    SanitizingFaultPipeline,
    install_sanitizer,
    sanitize_enabled,
)
from repro.rdma.completion import InflightKind
from repro.sim.machine import ENGINES, Machine, cluster_config, leap_config
from repro.sim.simulate import simulate
from repro.workloads import SequentialWorkload, ZipfianWorkload


def run_machine(engine: str = "object", config_fn=leap_config, **overrides):
    machine = Machine(config_fn(seed=11, engine=engine, **overrides))
    workloads = {0: ZipfianWorkload(512, 4000)}
    result = simulate(machine, workloads, memory_fraction=0.5)
    return machine, result


@pytest.fixture
def sanitized(monkeypatch):
    """Run :func:`run_machine` under ``REPRO_SANITIZE=1``."""

    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_SANITIZE", "1")
            return run_machine(*args, **kwargs)

    return run


class TestEngineWiring:
    def test_sanitize_is_not_an_engine(self):
        retired = "sanitize"
        assert retired not in ENGINES
        with pytest.raises(ValueError, match="unknown engine"):
            leap_config(engine=retired).validate()

    def test_sanitizer_keeps_the_configured_engine(self, sanitized):
        for engine in ENGINES:
            machine, result = sanitized(engine)
            assert isinstance(machine.vmm.pipeline, SanitizingFaultPipeline)
            assert machine.config.engine == engine
            assert result.processes[0].accesses == 4000

    def test_sanitizer_installs_the_pipeline(self, sanitized):
        machine, _ = sanitized()
        pipeline = machine.vmm.pipeline
        assert isinstance(pipeline, SanitizingFaultPipeline)
        assert pipeline.batches_checked > 0

    def test_plain_engine_does_not_install(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        machine, _ = run_machine("object")
        assert not isinstance(machine.vmm.pipeline, SanitizingFaultPipeline)

    def test_env_var_gates_installation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        machine = Machine(leap_config(engine="object"))
        assert isinstance(machine.vmm.pipeline, SanitizingFaultPipeline)
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()
        machine = Machine(leap_config(engine="object"))
        assert not isinstance(machine.vmm.pipeline, SanitizingFaultPipeline)

    def test_sampling_period_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_EVERY", "4")
        machine = Machine(leap_config(engine="object"))
        assert machine.vmm.pipeline.every == 4


class TestZeroDrift:
    def test_simulate_metrics_byte_identical_to_object(self, sanitized):
        _, plain = run_machine("object")
        _, checked = sanitized("object")
        assert plain.metrics.as_dict() == checked.metrics.as_dict()
        assert dataclasses.asdict(plain.cache_stats) == dataclasses.asdict(
            checked.cache_stats
        )

    def test_cluster_medium_byte_identical(self, sanitized):
        _, plain = run_machine("object", cluster_config)
        _, checked = sanitized("object", cluster_config)
        assert plain.metrics.as_dict() == checked.metrics.as_dict()

    def test_env_sanitizer_over_vectorized_concurrent(self, monkeypatch):
        def concurrent():
            machine = Machine(leap_config(seed=11, engine="vectorized", n_cores=2))
            workloads = {
                0: ZipfianWorkload(512, 4000),
                1: SequentialWorkload(512, 4000),
            }
            return machine, machine.run_concurrent(workloads, memory_fraction=0.5)

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        _, plain = concurrent()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        machine, sanitized = concurrent()
        assert isinstance(machine.vmm.pipeline, SanitizingFaultPipeline)
        assert machine.vmm.pipeline.batches_checked > 0
        assert plain.metrics.as_dict() == sanitized.metrics.as_dict()

    def test_fig13_smoke_artifact_byte_identical(self, monkeypatch):
        """The acceptance check: sanitizer-enabled fig13 smoke produces
        byte-identical simulated metrics to the plain run."""
        from repro.perf.profile import run_profile

        def profile():
            artifact, _ = run_profile("fig13", wss_pages=512, accesses=4000, cores=2)
            artifact.pop("wall_clock_s", None)  # host time, by design
            return artifact

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = profile()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sanitized = profile()
        assert json.dumps(plain, sort_keys=True) == json.dumps(sanitized, sort_keys=True)


class TestInvariantChecks:
    @pytest.fixture(autouse=True)
    def sanitize_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")

    def _sanitized(self, config_fn=leap_config, **overrides):
        machine, _ = run_machine("object", config_fn, **overrides)
        pipeline = machine.vmm.pipeline
        now = 10**15  # far past every in-flight deadline
        pipeline.cq.drain(now)
        pipeline.check_invariants(now)  # healthy end state passes
        return machine, pipeline, now

    def test_healthy_machine_passes(self):
        self._sanitized()

    def test_lru_page_table_divergence_detected(self):
        machine, pipeline, now = self._sanitized()
        process = machine.vmm.processes[0]
        vpn = next(iter(process.page_table._entries))
        process.resident_lru.remove(vpn)
        with pytest.raises(InvariantViolation, match="page table and residency LRU"):
            pipeline.check_invariants(now)

    def test_resident_mask_divergence_detected(self):
        machine, pipeline, now = self._sanitized()
        process = machine.vmm.processes[0]
        mask = process.page_table.ensure_resident_mask(process.address_space_pages)
        vpn = next(iter(process.page_table._entries))
        mask[vpn] = False
        with pytest.raises(InvariantViolation, match="resident_mask"):
            pipeline.check_invariants(now)

    def test_cgroup_ledger_mismatch_detected(self):
        machine, pipeline, now = self._sanitized()
        process = machine.vmm.processes[0]
        process.cgroup.charged_pages += 1
        with pytest.raises(InvariantViolation, match="cgroup charges"):
            pipeline.check_invariants(now)

    def test_cache_charge_ledger_mismatch_detected(self):
        machine, pipeline, now = self._sanitized()
        process = machine.vmm.processes[0]
        process.cache_charged += 1
        with pytest.raises(InvariantViolation, match="cache_charged ledger"):
            pipeline.check_invariants(now)

    def test_overdue_completion_detected(self):
        machine, pipeline, now = self._sanitized()
        pipeline.cq.issue((0, 1), InflightKind.DEMAND, core=0, issued_at=now - 10, arrival_at=now)
        with pytest.raises(InvariantViolation, match="overdue after drain"):
            pipeline.check_invariants(now)

    def test_clock_regression_detected(self):
        machine, pipeline, _ = self._sanitized()
        pipeline.begin_batch(10**15 + 100)
        with pytest.raises(InvariantViolation, match="ran backwards"):
            pipeline.begin_batch(10**15 + 50)

    def test_slab_slot_corruption_detected(self):
        machine, pipeline, now = self._sanitized()
        allocator = machine.host_agent.allocator
        slab = next(s for s in allocator.slabs.values() if s.page_slots)
        occupied = next(iter(slab.page_slots.values()))
        slab.free_slots.append(occupied)
        with pytest.raises(InvariantViolation, match="both free and occupied"):
            pipeline.check_invariants(now)

    def test_slab_mapping_corruption_detected(self):
        machine, pipeline, now = self._sanitized()
        allocator = machine.host_agent.allocator
        slab = next(s for s in allocator.slabs.values() if s.page_slots)
        key = next(iter(slab.page_slots))
        slab.page_slots[key] = slab.page_slots[key] + 10**6
        with pytest.raises(InvariantViolation, match="does not map back"):
            pipeline.check_invariants(now)

    def test_sampling_still_checks_first_batches(self):
        machine = Machine(leap_config(seed=11, engine="object"))
        pipeline = install_sanitizer(machine.vmm, every=2)
        workloads = {0: ZipfianWorkload(256, 2000)}
        simulate(machine, workloads, memory_fraction=0.5)
        assert pipeline.batches_checked >= 1
