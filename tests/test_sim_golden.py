"""Golden simulated results for the run layer's entry points.

The engine-equivalence tests in ``test_kernel`` compare the two engines
against each other; these pin both against fixed digests, so a change
to the event loop, the result types or the cluster path is checked
against numbers recorded before it rather than against itself.  Each
digest is a SHA-256 over ``repr`` of the per-process summary and
machine fingerprints.  A mismatch means a simulated number moved.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import FailureEvent
from repro.sim.machine import Machine, cluster_config, leap_config
from repro.sim.simulate import simulate

from test_kernel import (
    ENGINES,
    concurrent_workloads,
    machine_fingerprint,
    summary_fingerprint,
)

#: (processes, max_total_accesses) -> digest of a ``simulate`` run; the
#: two engines are bit-identical, so they share one digest.
SIMULATE_DIGESTS = {
    (1, None): "e70461ea127dd71a80289c1ba3ad018f75fcfd83ec66c0d459dfdcb7ea2a6f43",
    (1, 700): "0b0b10d1825c74d55dcdffee2e2f69d7bbe070f440d3fa94c51573aaa57092a1",
    (3, None): "7fc07ca29bad4cdb4e2868cba5cc427ce282e44ea1a18ce3f49f0fcfd3c9a0ba",
    (3, 700): "12d3a2d6143056ede1390fed83e1343b8bad9fdf26f91afdb31a7247da5277a9",
}

#: Digest of the ``run_cluster`` run, core occupancy included.
CLUSTER_DIGEST = "346b2eed25bfce99a996b8a6a186f36959dbddc6d1f52fee3e968f7f8a0bfa62"


def digest(result, machine: Machine, *extra) -> str:
    summary = summary_fingerprint(result)
    pids = list(result.processes)
    fingerprint = (
        {pid: summary[pid] for pid in pids},
        machine_fingerprint(machine, pids),
        *extra,
    )
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("budget", [None, 700])
@pytest.mark.parametrize("processes", [1, 3])
def test_simulate_matches_golden(processes, budget, engine):
    machine = Machine(leap_config(seed=11, engine=engine))
    workloads = dict(list(concurrent_workloads().items())[:processes])
    result = simulate(machine, workloads, memory_fraction=0.5, max_total_accesses=budget)
    assert digest(result, machine) == SIMULATE_DIGESTS[processes, budget]


@pytest.mark.parametrize("engine", ENGINES)
def test_run_cluster_matches_golden(engine):
    machine = Machine(cluster_config(seed=13, n_cores=2, remote_machines=3, engine=engine))
    fired = []

    def shrink(at):
        fired.append("limit")
        machine.set_memory_limit(1, 48, at)

    fail_server = machine.fail_server

    def traced_fail(server_id):
        fired.append("fail")
        return fail_server(server_id)

    machine.fail_server = traced_fail
    result = machine.run_cluster(
        concurrent_workloads(),
        cores=2,
        memory_fraction=0.5,
        failure_plan=[
            FailureEvent(2_000_000, 0),
            FailureEvent(5_000_000, 0, action="recover"),
        ],
        timeline=[(2_000_000, shrink)],
    )
    # Same simulated time: the caller's limit phase fires before the crash.
    assert fired == ["limit", "fail"]
    cores = {cid: (core.busy_ns, core.accesses) for cid, core in result.cores.items()}
    extra = (cores, result.migrations, result.unfired_timeline_events)
    assert digest(result, machine, *extra) == CLUSTER_DIGEST
