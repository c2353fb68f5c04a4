"""Failure injection: remote machine crashes mid-run (§4.5).

The paper inherits Infiniswap's fault-tolerance model — one in-memory
replica per slab — and claims Leap preserves it.  These tests crash
remote machines under live paging load and verify the host agent fails
over reads transparently (and that the workload completes with the
same results it would have produced, latency aside).
"""

import pytest

from repro.rdma.agent import RemotePageLostError
from repro.sim.machine import Machine, leap_config
from repro.sim.process import make_driver
from repro.sim.run import warmup_process
from repro.sim.scheduler import run_processes
from repro.workloads.patterns import StrideWorkload


def build_machine(replication=True, seed=21):
    config = leap_config(
        seed=seed,
        replication=replication,
        remote_machines=4,
        remote_capacity_pages=1 << 18,
    )
    machine = Machine(config)
    machine.add_process(1, wss_pages=2_048, limit_pages=1_024)
    warmup_process(machine, 1)
    machine.reset_measurements()
    return machine


def drive(machine, accesses=4_000):
    workload = StrideWorkload(2_048, accesses, stride=10, seed=21, think_ns=2_000)
    driver = make_driver(1, workload, engine="object")
    return run_processes(machine, [driver])


class TestFailover:
    def test_single_machine_failure_is_transparent(self):
        machine = build_machine(replication=True)
        # Fail the machine that actually hosts the first slab's primary.
        slab = machine.host_agent.allocator.slabs[0]
        victim = machine.host_agent.remote_agents[slab.machine_id]
        victim.fail()
        result = drive(machine)
        assert result.processes[1].accesses == 4_000
        assert machine.host_agent.failovers > 0

    def test_failure_without_replication_loses_pages(self):
        machine = build_machine(replication=False)
        # Fail every remote machine: the next remote read cannot be
        # served from anywhere.
        for agent in machine.host_agent.remote_agents.values():
            agent.fail()
        with pytest.raises(RemotePageLostError):
            drive(machine)

    def test_failed_machine_excluded_from_new_slabs(self):
        machine = build_machine(replication=True)
        victim_id = 0
        machine.host_agent.remote_agents[victim_id].fail()
        drive(machine)
        new_slabs = [
            slab
            for slab in machine.host_agent.allocator.slabs.values()
            if slab.machine_id == victim_id
        ]
        # Slabs opened before the failure may reference it; verify no
        # *new* primary placements went to the dead machine by checking
        # reservations did not grow.
        reserved_before = machine.host_agent.remote_agents[victim_id].reserved_pages
        drive_more = StrideWorkload(2_048, 2_000, stride=10, seed=22, think_ns=2_000)
        driver = make_driver(1, drive_more, engine="object")
        run_processes(machine, [driver])
        assert (
            machine.host_agent.remote_agents[victim_id].reserved_pages
            == reserved_before
        )

    def test_recovery_allows_reuse(self):
        machine = build_machine(replication=True)
        victim = machine.host_agent.remote_agents[0]
        victim.fail()
        drive(machine, accesses=1_000)
        victim.recover()
        result = drive(machine, accesses=1_000)
        assert result.processes[1].accesses == 1_000

    def test_results_identical_modulo_latency(self):
        """Failover changes timing, never which pages are paged."""
        healthy = build_machine(replication=True)
        healthy_result = drive(healthy)

        degraded = build_machine(replication=True)
        slab = degraded.host_agent.allocator.slabs[0]
        degraded.host_agent.remote_agents[slab.machine_id].fail()
        degraded_result = drive(degraded)

        assert (
            healthy_result.processes[1].accesses
            == degraded_result.processes[1].accesses
        )
        assert healthy_result.metrics.faults == degraded_result.metrics.faults
