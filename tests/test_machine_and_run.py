"""Tests for machine assembly, the scheduler, and the simulate() API."""

import pytest

from repro.mem.vmm import AccessKind
from repro.sim.machine import (
    Machine,
    MachineConfig,
    disk_config,
    infiniswap_config,
    leap_config,
)
from repro.sim.process import PageAccess, ProcessDriver
from repro.sim.run import warmup_process
from repro.sim.scheduler import run_processes
from repro.sim.simulate import simulate
from repro.workloads.patterns import SequentialWorkload, StrideWorkload


class TestMachineConfig:
    def test_presets(self):
        assert infiniswap_config().data_path == "legacy"
        assert infiniswap_config().medium == "remote"
        assert leap_config().prefetcher == "leap"
        assert leap_config().eviction == "eager"
        assert disk_config(medium="ssd").medium == "ssd"

    def test_overrides(self):
        config = leap_config(history_size=64, n_cores=2)
        assert config.history_size == 64
        assert config.n_cores == 2
        assert config.prefetcher == "leap"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("data_path", "bogus"),
            ("medium", "tape"),
            ("prefetcher", "psychic"),
            ("eviction", "yolo"),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            Machine(MachineConfig(**{field: value}))

    def test_machine_components_match_config(self):
        machine = Machine(leap_config())
        assert machine.data_path.name == "leap-lean"
        assert machine.cache.policy.name == "eager-fifo"
        assert machine.prefetcher.name == "leap"
        assert machine.host_agent is not None

        machine = Machine(disk_config(medium="hdd"))
        assert machine.data_path.name == "legacy-block"
        assert machine.cache.policy.name == "lazy-lru"
        assert machine.host_agent is None

    def test_same_seed_reproduces_run(self):
        results = []
        for _ in range(2):
            machine = Machine(leap_config(seed=77))
            workload = StrideWorkload(1_024, 4_000, stride=7, seed=77)
            result = simulate(machine, {1: workload}, memory_fraction=0.5)
            results.append(
                (result.completion_seconds(1), result.metrics.as_dict())
            )
        assert results[0] == results[1]

    def test_core_assignment_round_robin(self):
        machine = Machine(leap_config(n_cores=2))
        a = machine.add_process(1, wss_pages=64, limit_pages=32)
        b = machine.add_process(2, wss_pages=64, limit_pages=32)
        c = machine.add_process(3, wss_pages=64, limit_pages=32)
        assert (a.core, b.core, c.core) == (0, 1, 0)


class TestScheduler:
    def test_warmup_materializes_everything(self):
        machine = Machine(leap_config())
        machine.add_process(1, wss_pages=128, limit_pages=64)
        finish = warmup_process(machine, 1)
        process = machine.vmm.process(1)
        assert finish > 0
        assert len(process.materialized) == 128
        assert process.page_table.resident_count <= 64

    def test_min_clock_interleaving(self):
        """The slower process must not be starved by the faster one."""
        machine = Machine(leap_config())
        machine.add_process(1, wss_pages=64, limit_pages=64)
        machine.add_process(2, wss_pages=64, limit_pages=64)
        fast = ProcessDriver(
            1, iter([PageAccess(v % 64, think_ns=100) for v in range(500)])
        )
        slow = ProcessDriver(
            2, iter([PageAccess(v % 64, think_ns=10_000) for v in range(500)])
        )
        result = run_processes(machine, [fast, slow])
        assert result.processes[1].accesses == 500
        assert result.processes[2].accesses == 500
        assert result.processes[2].completion_ns > result.processes[1].completion_ns

    def test_max_total_accesses_cuts_off(self):
        machine = Machine(leap_config())
        machine.add_process(1, wss_pages=64, limit_pages=64)
        driver = ProcessDriver(
            1, iter([PageAccess(v % 64, think_ns=100) for v in range(1_000)])
        )
        result = run_processes(machine, [driver], max_total_accesses=100)
        assert result.processes[1].accesses == 100

    def test_kind_counts_add_up(self):
        machine = Machine(leap_config())
        machine.add_process(1, wss_pages=64, limit_pages=32)
        driver = ProcessDriver(
            1, iter([PageAccess(v % 64, think_ns=1_000) for v in range(300)])
        )
        result = run_processes(machine, [driver])
        summary = result.processes[1]
        assert sum(summary.kind_counts.values()) == summary.accesses == 300


class TestSimulateAPI:
    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError):
            simulate(Machine(leap_config()), {}, memory_fraction=0.5)

    def test_bad_fraction_rejected(self):
        machine = Machine(leap_config())
        workload = SequentialWorkload(64, 100)
        with pytest.raises(ValueError):
            simulate(machine, {1: workload}, memory_fraction=0.0)
        with pytest.raises(ValueError):
            simulate(machine, {1: workload}, memory_fraction=1.5)

    def test_full_memory_has_no_major_faults(self):
        machine = Machine(leap_config())
        workload = SequentialWorkload(256, 1_000, seed=1)
        result = simulate(machine, {1: workload}, memory_fraction=1.0)
        assert result.processes[1].kind_counts[AccessKind.MAJOR_FAULT] == 0
        assert result.metrics.faults == 0

    def test_warmup_excluded_from_metrics(self):
        machine = Machine(leap_config())
        workload = SequentialWorkload(256, 500, seed=1)
        result = simulate(machine, {1: workload}, memory_fraction=0.5)
        # Warmup's minor faults must not appear in measured metrics.
        assert result.metrics.minor_faults == 0

    def test_throughput_helper(self):
        machine = Machine(leap_config())
        workload = SequentialWorkload(128, 1_000, seed=1, think_ns=1_000)
        result = simulate(machine, {1: workload}, memory_fraction=1.0)
        tps = result.processes[1].throughput_per_second(500)
        assert tps > 0

    def test_multiple_processes(self):
        machine = Machine(leap_config())
        workloads = {
            1: SequentialWorkload(128, 500, seed=1),
            2: StrideWorkload(128, 500, stride=5, seed=2),
        }
        result = simulate(machine, workloads, memory_fraction=0.5)
        assert set(result.processes) == {1, 2}
        assert result.makespan_ns >= max(
            p.completion_ns for p in result.processes.values()
        )
