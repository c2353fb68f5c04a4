"""Golden simulated results for the run layer's entry points.

The engine-equivalence tests in ``test_kernel`` compare the two engines
against each other; these pin both against fixed digests, so a change
to the event loop, the result types or the cluster path is checked
against numbers recorded before it rather than against itself.  Each
digest is a SHA-256 over ``repr`` of the per-process summary and
machine fingerprints.  A mismatch means a simulated number moved.

The block-stream digests pin what the workload generators emit, so a
rewrite of a generator is checked against the trace it made before.

The scenario digests pin every registered scenario's ``run_scenario``
payload (minus the code revision), on both engines, at a small scale.
"""

from __future__ import annotations

import argparse
import hashlib

from unittest import mock

import numpy as np
import pytest

from repro.bench.prefetch import application_workloads
from repro.bench.runner import BenchScale
from repro.cli.common import WORKLOADS, make_workload
from repro.cluster import FailureEvent
from repro.scenarios import runner as scenario_runner
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.spec import build_tenant_workloads
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

#: (workload kind, seed, block size) -> digest of its ``columnar_blocks()``
#: stream at wss 512 and 3000 accesses; seed 42 covers every CLI kind,
#: seed 7 the four applications again.
BLOCK_STREAM_DIGESTS = {
    ('sequential', 42, 7): "69039f11ab05fbd0b41eeebf8f5005434233f23a40c8ac540493e76653eff42e",
    ('sequential', 42, 8192): "976d02aebf440b27a9aa2f9ead89a09e46935d36345d4d3b9a7c2c53e5c51850",
    ('stride', 42, 7): "138c9b308344e8bfab7aaf426b7bd4ec32bb1ff5c479f3dd5861d43d66bb4dc0",
    ('stride', 42, 8192): "a787e7ec4ed999805faf4c1b203b6fe3458b2003eddd202c58ceb74ac85ce153",
    ('random', 42, 7): "69c6ca1af09098d4c18f478ce19d9bc95200184d65f6bdbfeeff6e55d5002328",
    ('random', 42, 8192): "797e28a78a1289fc8d95f291b73d30de1d5e71e21ab4b6d989430f0702a1a8c9",
    ('zipfian', 42, 7): "7e1dd45ed6ebd7088b084cc87fa8e0be28b603dd32dde42906db1fe9acde5e55",
    ('zipfian', 42, 8192): "16b06d140c8290d9536fa8758907c61f370f87cc13e8d9c7c44b5f76f865ce77",
    ('powergraph', 42, 7): "4886d76818d9481d91791bf2462d3b9f7a8d34f6d79a6aabf38ff2f20f2b6b70",
    ('powergraph', 42, 8192): "f470b5a77ab3f61b586c61b5ee1fbb95d732af31bd8c8a72f697d683ab3d73a8",
    ('numpy', 42, 7): "acfe4bd54f079cf26e6ebeb323db3472f16a7d1c7d386c31b7534a78971e3f2c",
    ('numpy', 42, 8192): "6592d25ec1e0ac9c5ab533957da1c42975c1926214c3fbb0ff3e1b8fae178658",
    ('voltdb', 42, 7): "2ec80d01ca4fea3ea54899fa370fa69900cbf6ca70e747dbaab3e8c86e070002",
    ('voltdb', 42, 8192): "4065e9e2c5941c844a03639b6c644b0de33d1cea6bdf2bbb94b37cfa9f543a86",
    ('memcached', 42, 7): "0112c0c82379ece828dcba1c951dbb0a259e1a586e89a62916b31cb419db1fff",
    ('memcached', 42, 8192): "ee212ccfd4827d428f7c08ca8482be10b6ef5a6607bf5f4b6d34f92c473896d1",
    ('kvcache', 42, 7): "7313fc71073f1f09b8c0de555a4053f766f69f6d6a200ca8661d78a26e3844a0",
    ('kvcache', 42, 8192): "8686d6e2f3b70181d2b37752ef573fa8983e6b33c748d51b334f9e4b5df5d776",
    ('powergraph', 7, 7): "4404bb0e2a652152c30015c2bd1f4d82541466491bed3995eee73cddc69edb3c",
    ('powergraph', 7, 8192): "93f1a5c3854ac5ba08204760ed2f15462f69156a4e582ea426ddec7f3ea0c69f",
    ('numpy', 7, 7): "bbb0abb4b134ccc8d6cd943ffc6a0393318bcc75e515a4754207366366998972",
    ('numpy', 7, 8192): "174478b4571be5564d8af90e590734d9ace15e51cd11ae9b48f70b932fb7066b",
    ('voltdb', 7, 7): "93baaf0a6db46a46b94e61d448d4e50ad744438324384daed666c7a7370009e8",
    ('voltdb', 7, 8192): "c97f7f31e710832802b912f6dd6f59f8084128b267f554b8ac37c92f6440f6d3",
    ('memcached', 7, 7): "1252f888fa59fc4a5e1db4769a030c413780c2c6ed7567b5163ae6153b1a5d15",
    ('memcached', 7, 8192): "8684db3754097205656b3c7c3fac467696e092eb473d91a8b4de3a7249b8abda",
    ('failover-under-load/web', 42, 7): "b4a91dd2728351a8c921d36b02cb68f0066469c89670b1369ac9c05d7326a363",
    ('failover-under-load/web', 42, 8192): "30c4031363a71261bbb32d7890bf0806658020fe3ae7eb747e466a63fd7d77ad",
    ('failover-under-load/oltp', 42, 7): "c2a8c8ff81b0cf1be5c96de58fe97d0240fad2b4c0f705b0d19d81101b72d8dd",
    ('failover-under-load/oltp', 42, 8192): "8e07c0b9fa9118987f7d2187378ebb6733395f79e489ac1b4070771d45981dc3",
    ('failover-under-load/cache', 42, 7): "ee5a6fa1f74b5602a05fc3841d9dc3223fcdf25bedfae07e36f1921486e6fd1d",
    ('failover-under-load/cache', 42, 8192): "57f76ab9a3ca3993420e2bbeb26561e54fbc56e2e5a8fd2dbe0847bd38e1a35d",
}

#: Scenario name -> digest of its ``run_scenario`` payload at seed 42,
#: 4 cores, 256 pages and 1200 accesses (4 servers where the scenario
#: has a failure timeline); both engines share one digest.
SCENARIO_DIGESTS = {
    "adaptive-colocation": "03001aab3b9506c66747dcda3ab6cba96542ecee890c10af5ea220bdd652c858",
    "analytics-batch": "9c95a8bcb5ab1434d4c63d09f255e5600667421bf86ee440889b9af5e7a2845e",
    "failover-under-load": "4a82505c73b29d7a253e03c909124f823f225dffdfbaedcc139aa17f3817499d",
    "kitchen-sink": "5e61fabf2bde766580e60f655333d42d76d5ac5e280c45fcff33ad2c17d87771",
    "llm-inference-paging": "969cef14061449bc44e89712a6c83df10caf6182fca8f23dce1141e959fbac35",
    "memcached-storm": "22845bbc64d0bac38615184a4277539b78bad7c0d16f44474001fdda92ffd434",
    "noisy-neighbor": "fa679a576eb6d0d30b09623f84d02acfc01fb11b9f0ff9d4ef9c12f169b680ce",
    "noisy-neighbor-balanced": "9c907323361e7658eb23cd13ba35a648f9e8e11fe26f4adcc7aa07f13ade530a",
    "phase-shift": "2e163b42fa08331f4bb3165cdc471e39aa6ae9531a31e0ccbe8e1ae058a45452",
    "phase-shift-governed": "86f101d0118af184ffc8288c0e69ae9ed47b682c61a83d5780e0ee589e6ab98a",
    "stride-adversary": "9741bc0466566fea75cda300a75145240757cb10cb136941c0ec2d7b72d1cd3a",
    "web-tier-zipf": "5d4715b40f6d6b11712956648ff2ea26fed25a0a284df0131841665e707b149b",
}


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


def block_stream_digest(workload, block_size: int) -> str:
    """SHA-256 over each block's vpn, is_write and think_ns bytes, in order."""
    h = hashlib.sha256()
    for block in workload.columnar_blocks(block_size):
        h.update(np.ascontiguousarray(block.vpn, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(block.is_write, dtype=np.bool_).tobytes())
        h.update(np.ascontiguousarray(block.think_ns, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("block_size", [7, 8192])
@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_workload_block_stream_matches_golden(kind, block_size):
    args = argparse.Namespace(workload=kind, wss_pages=512, accesses=3000, seed=42, stride=10)
    expected = BLOCK_STREAM_DIGESTS[kind, 42, block_size]
    assert block_stream_digest(make_workload(args), block_size) == expected


@pytest.mark.parametrize("block_size", [7, 8192])
@pytest.mark.parametrize("seed", [42, 7])
def test_application_block_streams_match_golden(seed, block_size):
    apps = application_workloads(BenchScale(wss_pages=512, accesses=3000, seed=seed))
    for name, workload in apps.items():
        expected = BLOCK_STREAM_DIGESTS[name, seed, block_size]
        assert block_stream_digest(workload, block_size) == expected, name


@pytest.mark.parametrize("block_size", [7, 8192])
def test_open_loop_block_streams_match_golden(block_size):
    scenario = get_scenario("failover-under-load", wss_pages=512, total_accesses=9000)
    workloads, names = build_tenant_workloads(scenario, 42)
    for pid, workload in workloads.items():
        expected = BLOCK_STREAM_DIGESTS[f"failover-under-load/{names[pid]}", 42, block_size]
        assert block_stream_digest(workload, block_size) == expected, names[pid]


def test_every_registered_scenario_is_pinned():
    assert sorted(SCENARIO_DIGESTS) == scenario_names()


def run_scenario_on(engine: str, name: str) -> dict:
    """``run_scenario`` with the machine built for *engine*."""
    leap, cluster = scenario_runner.leap_config, scenario_runner.cluster_config
    with mock.patch.object(
        scenario_runner, "leap_config", lambda **kw: leap(engine=engine, **kw)
    ), mock.patch.object(
        scenario_runner, "cluster_config", lambda **kw: cluster(engine=engine, **kw)
    ):
        return scenario_runner.run_scenario(name, seed=42, wss_pages=256, total_accesses=1200)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_scenario_matches_golden(name, engine):
    payload = run_scenario_on(engine, name)
    del payload["provenance"]["code_rev"]
    assert hashlib.sha256(repr(payload).encode()).hexdigest() == SCENARIO_DIGESTS[name]
