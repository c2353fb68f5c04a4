"""Concurrent scheduler: determinism, contention, migration, batching."""

import pytest

from repro.sim.machine import Machine, leap_config
from repro.sim.scheduler import ConcurrentScheduler
from repro.sim.process import make_driver
from repro.sim.run import warmup_process
from repro.workloads.patterns import (
    RandomWorkload,
    SequentialWorkload,
    StrideWorkload,
    ZipfianWorkload,
)


def three_workloads(seed=7, wss=1024, accesses=4000):
    return {
        1: SequentialWorkload(wss_pages=wss, total_accesses=accesses, seed=seed),
        2: StrideWorkload(wss_pages=wss, total_accesses=accesses, seed=seed),
        3: ZipfianWorkload(wss_pages=wss, total_accesses=accesses, seed=seed),
    }


def run_concurrent(seed=7, cores=2, **kwargs):
    machine = Machine(leap_config(seed=seed))
    return machine.run_concurrent(three_workloads(seed=seed), cores=cores, **kwargs)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        """Fixed seed + N>1 processes => bit-identical schedules."""
        a = run_concurrent()
        b = run_concurrent()
        assert {p: s.completion_ns for p, s in a.processes.items()} == {
            p: s.completion_ns for p, s in b.processes.items()
        }
        assert {p: s.kind_counts for p, s in a.processes.items()} == {
            p: s.kind_counts for p, s in b.processes.items()
        }
        assert a.migrations == b.migrations
        assert {c: s.busy_ns for c, s in a.cores.items()} == {
            c: s.busy_ns for c, s in b.cores.items()
        }

    def test_seed_changes_schedule(self):
        a = run_concurrent(seed=7)
        b = run_concurrent(seed=8)
        assert a.makespan_ns != b.makespan_ns


class TestCoreContention:
    def test_fewer_cores_stretch_makespan(self):
        one = run_concurrent(cores=1)
        two = run_concurrent(cores=2)
        assert one.makespan_ns > two.makespan_ns

    def test_single_core_serializes_everything(self):
        result = run_concurrent(cores=1)
        assert set(result.cores) == {0}
        # All measured work ran on core 0.
        total_accesses = sum(s.accesses for s in result.processes.values())
        assert result.cores[0].accesses == total_accesses

    def test_core_wait_accrues_under_contention(self):
        result = run_concurrent(cores=1)
        assert result.total_core_wait_ns > 0

    def test_cores_validation(self):
        machine = Machine(leap_config())
        with pytest.raises(ValueError):
            machine.run_concurrent(three_workloads(), cores=0)
        with pytest.raises(ValueError):
            # More cores than the machine is configured with.
            machine.run_concurrent(three_workloads(), cores=999)

    def test_access_budget_finishes_all_drivers(self):
        machine = Machine(leap_config(seed=7))
        result = machine.run_concurrent(
            three_workloads(), cores=2, max_total_accesses=1000
        )
        assert all(s.completion_ns >= 0 for s in result.processes.values())
        assert sum(s.accesses for s in result.processes.values()) == 1000


class TestMigration:
    def run_with_forced_migration(self, seed=7):
        """Tiny threshold + zero interval: first sustained wait migrates."""
        machine = Machine(leap_config(seed=seed))
        workloads = three_workloads(seed=seed)
        for slot, (pid, workload) in enumerate(workloads.items()):
            machine.add_process(
                pid,
                wss_pages=workload.wss_pages,
                limit_pages=max(2, workload.wss_pages // 2),
                core=slot % 2,
            )
        start_ns = 0
        for pid in workloads:
            start_ns = max(start_ns, warmup_process(machine, pid, start_ns=start_ns))
        machine.reset_measurements()
        drivers = [
            make_driver(pid, workload, start_ns, engine="object")
            for pid, workload in workloads.items()
        ]
        scheduler = ConcurrentScheduler(
            machine,
            drivers,
            cores=2,
            migration_threshold_ns=1,
            migration_cost_ns=100,
            migration_interval_ns=1,
        )
        return machine, scheduler.run()

    def test_migrations_happen_and_are_recorded(self):
        machine, result = self.run_with_forced_migration()
        assert result.migrations > 0
        assert sum(s.migrations for s in result.processes.values()) == result.migrations

    def test_machine_migration_split_merges_sharded_history(self):
        """Faults before a migration must survive into the new shard."""
        machine = Machine(leap_config(seed=3))
        machine.add_process(1, wss_pages=256, limit_pages=64, core=0)
        now = warmup_process(machine, 1)
        machine.reset_measurements()
        # Re-touch evicted pages: real remote faults feed the tracker.
        for vpn in range(24):
            outcome = machine.vmm.access(1, vpn, now)
            now += 1_000 + outcome.latency_ns
        tracker = machine.prefetcher
        assert tracker.shard_keys == [(1, 0)]
        source_snapshot = tracker.shard_for(1, 0).history.snapshot()
        assert source_snapshot, "faults should have filled the shard history"

        machine.migrate_process(1, 2)
        assert machine.vmm.process(1).core == 2
        assert tracker.active_core(1) == 2
        assert tracker.migrations == 1
        destination = tracker.shard_for(1, 2)
        assert destination.history.snapshot() == source_snapshot

        # Post-migration faults land in (and extend) the new shard.
        before = len(destination.history.snapshot())
        for vpn in range(24, 40):
            outcome = machine.vmm.access(1, vpn, now)
            now += 1_000 + outcome.latency_ns
        assert tracker.shard_for(1, 0).history.snapshot() == source_snapshot
        assert destination.history.snapshot() != source_snapshot or (
            len(destination.history) > before
        )

    def test_no_migration_flag_disables_it(self):
        machine = Machine(leap_config(seed=7))
        result = machine.run_concurrent(
            three_workloads(), cores=2, allow_migration=False
        )
        assert result.migrations == 0
        assert all(s.migrations == 0 for s in result.processes.values())


class TestBatchedPrefetchEquivalence:
    @pytest.mark.parametrize("workload_cls", [SequentialWorkload, RandomWorkload])
    def test_hit_miss_counts_unchanged(self, workload_cls):
        """Batching a window changes *when* pages arrive, never *which*
        pages are fetched — hit/miss populations must match."""

        def counts(batch: bool):
            machine = Machine(leap_config(seed=11, batch_prefetch=batch))
            result = machine.run_concurrent(
                {1: workload_cls(wss_pages=2048, total_accesses=8000, seed=11)},
                cores=1,
                memory_fraction=0.5,
            )
            metrics = result.metrics
            return (
                metrics.faults,
                metrics.misses,
                metrics.prefetch_issued,
                metrics.prefetch_hits,
            )

        assert counts(True) == counts(False)

    def test_batched_sweep_is_one_stage_traversal(self):
        """On the lean path a window of N costs one read-stage sample."""
        machine = Machine(leap_config(seed=5))
        path = machine.data_path
        assert path.supports_batching
        keys = [("p", i) for i in range(8)]
        completions = path.async_read_batch(keys, now=0, core=0)
        assert len(completions) == 8
        assert path.async_reads == 8
        # Exactly one read-stage sample was consumed for the sweep.
        assert path.stages._read_pool.position == 1

    def test_legacy_path_falls_back_to_per_page(self):
        from repro.sim.machine import infiniswap_config

        machine = Machine(infiniswap_config(seed=5))
        path = machine.data_path
        assert not path.supports_batching
        keys = [("p", i) for i in range(4)]
        completions = path.async_read_batch(keys, now=0, core=0)
        assert len(completions) == 4
        # One full stage traversal per page.
        assert path.stages._read_pool.position == 4
