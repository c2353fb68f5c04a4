"""The open-loop wrapper's columnar blocks, and the object engine's tuple walk.

:class:`OpenLoopWorkload` re-times an inner workload with arrival gaps.
Its :meth:`~OpenLoopWorkload.columnar_blocks` must concatenate to
exactly the inner workload's vpn and write columns with the first
``total_accesses`` gaps of :meth:`ArrivalSpec.gaps` as think times, for
any arrival shape, inner kind and block size.  The object engine walks
those blocks as plain ``(vpn, is_write, think_ns)`` tuples, so a run
builds no :class:`PageAccess`; :class:`ProcessDriver` still accepts
:class:`PageAccess` iterables.
"""

from __future__ import annotations

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.spec import ArrivalSpec, OpenLoopWorkload
from repro.sim.machine import Machine, leap_config
from repro.sim.process import PageAccess, ProcessDriver, make_driver
from repro.sim.rng import SimRandom
from repro.sim.run import warmup_process
from repro.workloads.base import materialize_columns
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.patterns import ZipfianWorkload
from repro.workloads.voltdb import VoltDBWorkload

from test_kernel import machine_fingerprint, unpack
from test_sim_golden import run_scenario_on
from workload_oracle import oracle_accesses

INNER_KINDS = {
    "zipfian": lambda wss, n, seed: ZipfianWorkload(wss, n, seed=seed, write_fraction=0.2),
    "voltdb": lambda wss, n, seed: VoltDBWorkload(wss, n, seed=seed),
    "memcached": lambda wss, n, seed: MemcachedWorkload(wss, n, seed=seed),
}

phase_ranges = st.sampled_from([(1, 1), (1, 3), (5, 40), (64, 256)])


@st.composite
def open_loop_workloads(draw) -> OpenLoopWorkload:
    arrival = ArrivalSpec(
        think_ns=draw(st.sampled_from([0, 1, 700, 1_000])),
        burst_think_ns=draw(st.sampled_from([0, 100])),
        burst_accesses=draw(phase_ranges),
        calm_accesses=draw(phase_ranges),
        jitter=draw(st.booleans()),
    )
    inner = INNER_KINDS[draw(st.sampled_from(sorted(INNER_KINDS)))](
        draw(st.integers(min_value=40, max_value=400)),
        draw(st.integers(min_value=1, max_value=1500)),
        draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )
    return OpenLoopWorkload(inner, arrival, seed=draw(st.integers(min_value=0, max_value=99)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(workload=open_loop_workloads(), block_size=st.sampled_from([1, 7, 8192]))
def test_columnar_blocks_concatenate_to_accesses(workload, block_size):
    inner_vpn, inner_writes, _ = materialize_columns(workload.inner)
    gaps = workload.arrival.gaps(SimRandom(workload.seed, f"arrivals/{workload.name}"))
    vpns, writes, thinks = unpack(workload, block_size)
    assert len(vpns) == workload.total_accesses
    assert vpns == inner_vpn.tolist()
    assert writes == inner_writes.tolist()
    assert thinks == list(islice(gaps, workload.total_accesses))


def test_object_engine_run_builds_no_page_access(monkeypatch):
    created = []
    original = PageAccess.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(PageAccess, "__new__", counting_new)
    # The counter sees constructions, including the per-access oracle's.
    PageAccess(1)
    list(oracle_accesses(ZipfianWorkload(64, 10, seed=1)))
    assert len(created) == 11
    created.clear()
    payload = run_scenario_on("object", "failover-under-load")
    assert payload["totals"]["accesses"] > 0
    assert created == []


def test_driver_accepts_page_access_iterables():
    """A driver over PageAccess objects runs exactly like make_driver's tuples."""

    def run(make):
        machine = Machine(leap_config(seed=5))
        workload = OpenLoopWorkload(VoltDBWorkload(128, 900, seed=3), ArrivalSpec(), seed=4)
        machine.add_process(1, wss_pages=workload.wss_pages, limit_pages=48)
        start = warmup_process(machine, 1)
        driver = make(workload, start)
        while driver.step_burst(machine.vmm):
            pass
        return driver.clock.now, driver.accesses, driver.fault_latencies, machine_fingerprint(
            machine, [1]
        )

    def page_accesses(workload):
        vpns, writes, thinks = materialize_columns(workload)
        return map(PageAccess, vpns.tolist(), writes.tolist(), thinks.tolist())

    objects = run(lambda workload, start: ProcessDriver(1, page_accesses(workload), start))
    tuples = run(lambda workload, start: make_driver(1, workload, start, engine="object"))
    assert objects == tuples
    assert objects[1] == 900
