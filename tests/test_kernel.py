"""Object-vs-vectorized burst engine equivalence.

The vectorized kernel (:mod:`repro.kernel`) promises *bit-exact*
simulated results against the object-at-a-time oracle: same per-fault
latencies, same LRU orders, same dirty bits, same metrics, for every
run entry point.  These tests pin that promise at three levels:

* columnar generation — every workload's ``columnar_blocks()`` stream
  concatenates to exactly its per-access oracle
  (:mod:`workload_oracle`), on hand-picked and generated
  configurations;
* primitive batch ops — ``SimRandom.random_array`` and the kernel's
  resident-run collapse (``_apply_resident_run``) match their scalar
  counterparts draw for draw;
* whole runs — ``simulate`` / ``run_concurrent`` / ``run_cluster``
  under both engines, including the edge cases that stress the
  kernel's stop bounds (cgroup resize timelines, server failures,
  QP backpressure, epochs, access budgets, zero-length bursts).

The seeded million-access smoke at the bottom is nightly-only: set
``REPRO_NIGHTLY=1`` (the nightly workflow does) to run it.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import FailureEvent
from repro.datapath.pipeline import FaultPipeline
from repro.kernel import AccessBlock, ColumnarCursor
from repro.kernel.vectorized import _apply_resident_run
from repro.mem.lru import ActiveInactiveLRU
from repro.mem.page_table import PageTable
from repro.sim.machine import ENGINES, Machine, cluster_config, leap_config
from repro.sim.process import ProcessDriver, make_driver
from repro.sim.rng import SimRandom
from repro.sim.run import warmup_process
from repro.sim.simulate import simulate
from repro.workloads.base import Workload
from repro.workloads.kvcache import KVCacheWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.numpy_matmul import NumpyMatmulWorkload
from repro.workloads.patterns import (
    RandomWorkload,
    SequentialWorkload,
    StrideWorkload,
    ZipfianWorkload,
)
from repro.workloads.phased import PHASE_KINDS, PhasedWorkload
from repro.workloads.powergraph import PowerGraphWorkload
from repro.workloads.voltdb import VoltDBWorkload

from v1_text import import_v1, write_v1_trace
from workload_oracle import oracle_accesses


# ---------------------------------------------------------------------------
# Columnar generation: blocks concatenate to exactly the per-access oracle.
# ---------------------------------------------------------------------------


def unpack(workload: Workload, block_size: int):
    vpns, writes, thinks = [], [], []
    for block in workload.columnar_blocks(block_size):
        vpns.extend(block.vpn.tolist())
        writes.extend(block.is_write.tolist())
        thinks.extend(block.think_ns.tolist())
    return vpns, writes, thinks


def access_tuples(workload: Workload, block_size: int | None = None) -> list:
    """The workload's trace as ``(vpn, is_write, think_ns)`` tuples."""
    return list(zip(*unpack(workload, block_size)))


def assert_streams_match(workload: Workload, block_size: int) -> None:
    expected = list(oracle_accesses(workload))
    vpns, writes, thinks = unpack(workload, block_size)
    assert vpns == [a.vpn for a in expected]
    assert writes == [a.is_write for a in expected]
    assert thinks == [a.think_ns for a in expected]


ALL_PHASE_WORKLOAD = PhasedWorkload(
    wss_pages=97,
    total_accesses=900,
    phases=[
        {"kind": "sequential"},
        {"kind": "noisy-sequential", "noise": 0.25},
        {"kind": "stride", "stride": 7},
        {"kind": "random"},
        {"kind": "zipfian", "skew": 1.1},
        {"kind": "permloop", "loop_pages": 31},
    ],
    seed=9,
    write_fraction=0.3,
)


@st.composite
def phase_specs(draw, wss: int) -> dict:
    kinds = [kind for kind in PHASE_KINDS if kind != "permloop" or wss >= 2]
    phase: dict = {"kind": draw(st.sampled_from(kinds))}
    if draw(st.booleans()):
        phase["fraction"] = draw(st.sampled_from([0.05, 0.5, 1.0, 3.0]))
    if phase["kind"] == "noisy-sequential" and draw(st.booleans()):
        phase["noise"] = draw(st.sampled_from([0.0, 0.25, 0.9]))
    elif phase["kind"] == "stride" and draw(st.booleans()):
        phase["stride"] = draw(st.integers(min_value=1, max_value=wss + 5))
    elif phase["kind"] == "zipfian" and draw(st.booleans()):
        phase["skew"] = draw(st.sampled_from([0.5, 1.1, 2.5]))
    elif phase["kind"] == "permloop" and draw(st.booleans()):
        phase["loop_pages"] = draw(st.integers(min_value=2, max_value=wss))
    return phase


@st.composite
def generated_workloads(draw) -> Workload:
    """One of the six directly generated workload kinds, any shape.

    Covers traces shorter than the working set, strides longer than
    it, write fractions of zero and above, every phase kind, and the
    KV-cache ring parameters.
    """
    kind = draw(
        st.sampled_from(["sequential", "stride", "random", "zipfian", "phased", "kvcache"])
    )
    wss = draw(st.integers(min_value=2 if kind == "kvcache" else 1, max_value=300))
    common = {
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
        "think_ns": draw(st.sampled_from([0, 1_000])),
        "write_fraction": draw(st.sampled_from([0.0, 0.3, 1.0])),
    }
    total = draw(st.integers(min_value=1, max_value=1_500))
    if kind == "sequential":
        return SequentialWorkload(wss, total, **common)
    if kind == "stride":
        stride = draw(st.integers(min_value=1, max_value=2 * wss + 3))
        return StrideWorkload(wss, total, stride=stride, **common)
    if kind == "random":
        return RandomWorkload(wss, total, **common)
    if kind == "zipfian":
        skew = draw(st.sampled_from([0.3, 0.99, 1.2, 3.0]))
        return ZipfianWorkload(wss, total, skew=skew, **common)
    if kind == "phased":
        phases = draw(st.lists(phase_specs(wss), min_size=1, max_size=4))
        return PhasedWorkload(wss, total, phases=phases, **common)
    hot_fraction = draw(st.sampled_from([0.01, 0.125, 0.5, 0.9]))
    assume(max(1, int(wss * hot_fraction)) < wss)
    return KVCacheWorkload(
        wss,
        total,
        hot_fraction=hot_fraction,
        append_pages=draw(st.integers(min_value=1, max_value=40)),
        lookups_per_append=draw(st.integers(min_value=0, max_value=60)),
        recency_skew=draw(st.sampled_from([0.5, 2.0, 3.5])),
        **common,
    )


class TestColumnarBlocks:
    @pytest.mark.parametrize(
        "workload",
        [
            SequentialWorkload(wss_pages=64, total_accesses=333, seed=1),
            StrideWorkload(wss_pages=64, total_accesses=333, seed=2, stride=10),
            StrideWorkload(wss_pages=6, total_accesses=50, seed=2, stride=9),
            RandomWorkload(wss_pages=64, total_accesses=333, seed=3),
            ZipfianWorkload(wss_pages=64, total_accesses=333, seed=4, skew=1.2),
            ZipfianWorkload(
                wss_pages=64, total_accesses=333, seed=5, write_fraction=0.4
            ),
            ALL_PHASE_WORKLOAD,
            PowerGraphWorkload(wss_pages=300, total_accesses=2000, seed=6),
            NumpyMatmulWorkload(wss_pages=300, total_accesses=2000, seed=7),
            VoltDBWorkload(wss_pages=300, total_accesses=2000, seed=8),
            MemcachedWorkload(wss_pages=300, total_accesses=2000, seed=9),
        ],
        ids=lambda w: w.name + (f"+wf{w.write_fraction}" if w.write_fraction else ""),
    )
    @pytest.mark.parametrize("block_size", [7, 64, 8192])
    def test_blocks_equal_object_stream(self, workload, block_size):
        assert_streams_match(workload, block_size)

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(workload=generated_workloads())
    def test_generated_configurations_equal_oracle(self, workload):
        expected = [tuple(access) for access in oracle_accesses(workload)]
        assert len(expected) == workload.total_accesses
        for block_size in (1, 7, 8192):
            blocks = list(workload.columnar_blocks(block_size))
            # Every block is block_size long except the last.
            assert all(len(block) == block_size for block in blocks[:-1])
            assert [
                access
                for block in blocks
                for access in zip(
                    block.vpn.tolist(), block.is_write.tolist(), block.think_ns.tolist()
                )
            ] == expected

    def test_recorded_workload_round_trip(self, tmp_path):
        accesses = [(v % 13, v % 3 == 0, 100 + v) for v in range(40)]
        path = tmp_path / "t.trace"
        write_v1_trace(path, accesses, wss_pages=13, think_ns=100)
        workload = import_v1(path)
        # Replay twice: the columns must not consume state.
        for _ in range(2):
            assert access_tuples(workload, 16) == accesses


class TestRandomArray:
    def test_matches_scalar_draws_interleaved(self):
        batched = SimRandom(7, "stream")
        scalar = SimRandom(7, "stream")
        values = []
        values.extend(batched.random_array(100).tolist())
        values.append(batched.random())  # scalar draw between batches
        values.extend(batched.random_array(3).tolist())
        expected = [scalar.random() for _ in range(104)]
        assert values == expected

    def test_empty_batch_draws_nothing(self):
        batched = SimRandom(7, "stream")
        scalar = SimRandom(7, "stream")
        assert len(batched.random_array(0)) == 0
        assert batched.random() == scalar.random()


class TestReferenceBulk:
    """The kernel's collapsed resident run equals per-access bookkeeping.

    ``_apply_resident_run`` replaces a run of ``reference()`` +
    ``mark_dirty()`` calls with one ``reference_bulk`` in last-use order
    plus one deduplicated dirty batch.  Runs here repeat keys, mix in
    writes, and start from LRUs holding keys on both lists.
    """

    @staticmethod
    def preloaded(keys: int, promoted):
        page_table = PageTable(pid=1)
        lru = ActiveInactiveLRU()
        for vpn in range(keys):
            page_table.map_page(vpn, frame=vpn, now=0)
            lru.add(vpn, vpn)
        for vpn in promoted:
            lru.reference(vpn)
        return page_table, lru

    def assert_collapse_matches(self, keys, promoted, vpns, writes):
        scalar_table, scalar_lru = self.preloaded(keys, promoted)
        bulk_table, bulk_lru = self.preloaded(keys, promoted)
        for vpn, write in zip(vpns, writes):
            scalar_lru.reference(vpn)
            if write:
                scalar_table.mark_dirty(vpn)
        _apply_resident_run(
            bulk_table,
            bulk_lru,
            np.array(vpns, dtype=np.int64),
            np.array(writes, dtype=np.bool_),
        )
        assert bulk_lru.keys_eviction_order() == scalar_lru.keys_eviction_order()
        assert bulk_lru.active_count == scalar_lru.active_count
        dirty = [
            sorted(vpn for vpn in range(keys) if table.lookup(vpn).dirty)
            for table in (scalar_table, bulk_table)
        ]
        assert dirty[0] == dirty[1]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda keys: st.tuples(
                st.just(keys),
                st.lists(st.integers(0, keys - 1), max_size=keys),
                st.lists(
                    st.tuples(st.integers(0, keys - 1), st.booleans()),
                    min_size=1,
                    max_size=300,
                ),
            )
        )
    )
    def test_collapse_matches_per_access_references(self, case):
        keys, promoted, run = case
        vpns = [vpn for vpn, _ in run]
        writes = [write for _, write in run]
        self.assert_collapse_matches(keys, promoted, vpns, writes)

    @pytest.mark.parametrize("length", [2, 63, 64, 65, 400])
    def test_collapse_matches_on_long_runs(self, length):
        rng = np.random.default_rng(length)  # test-only data, not sim state
        vpns = rng.integers(0, 48, size=length).tolist()
        writes = (rng.random(length) < 0.3).tolist()
        promoted = rng.integers(0, 48, size=20).tolist()
        self.assert_collapse_matches(48, promoted, vpns, writes)


# ---------------------------------------------------------------------------
# Whole-run equivalence between the two engines.
# ---------------------------------------------------------------------------


def machine_fingerprint(machine: Machine, pids) -> dict:
    per_process = {}
    for pid in pids:
        process = machine.vmm.process(pid)
        per_process[pid] = {
            "lru": process.resident_lru.keys_eviction_order(),
            "dirty": sorted(
                vpn
                for vpn in process.page_table._entries
                if process.page_table._entries[vpn].dirty
            ),
            "charged": process.cgroup.charged_pages,
        }
    stats = machine.cache.stats
    return {
        "metrics": machine.metrics.as_dict(),
        "cache": {
            "demand_adds": stats.demand_adds,
            "prefetch_adds": stats.prefetch_adds,
            "ready_hits": stats.ready_hits,
            "inflight_hits": stats.inflight_hits,
            "misses": stats.misses,
            "evicted_unused": stats.evicted_unused,
            "evicted_consumed": stats.evicted_consumed,
        },
        "processes": per_process,
    }


def summary_fingerprint(result) -> dict:
    out = {}
    for pid, summary in result.processes.items():
        out[pid] = {
            "accesses": summary.accesses,
            "completion_ns": summary.completion_ns,
            "kind_counts": dict(summary.kind_counts),
            "total_fault_latency_ns": summary.total_fault_latency_ns,
            "fault_latencies": tuple(summary.fault_latencies),
            "core_wait_ns": summary.core_wait_ns,
            "migrations": summary.migrations,
        }
    out["cores"] = {cid: (core.busy_ns, core.accesses) for cid, core in result.cores.items()}
    out["migrations"] = result.migrations
    out["unfired_timeline_events"] = result.unfired_timeline_events
    return out


def concurrent_workloads(accesses=1200):
    return {
        1: ZipfianWorkload(wss_pages=192, total_accesses=accesses, seed=3, skew=1.1),
        2: StrideWorkload(wss_pages=192, total_accesses=accesses, seed=4, stride=7),
        3: PhasedWorkload(
            wss_pages=160,
            total_accesses=accesses,
            phases=[
                {"kind": "zipfian", "skew": 1.2},
                {"kind": "permloop", "loop_pages": 60},
            ],
            seed=5,
            write_fraction=0.2,
        ),
    }


def run_both(build_and_run):
    """Run *build_and_run(engine)* under both engines; return both outcomes."""
    outcomes = {}
    for engine in ENGINES:
        outcomes[engine] = build_and_run(engine)
    return outcomes["object"], outcomes["vectorized"]


class TestEngineEquivalence:
    def test_simulate_single_process(self):
        def build(engine):
            machine = Machine(leap_config(seed=11, engine=engine))
            workloads = {
                1: ZipfianWorkload(
                    wss_pages=256,
                    total_accesses=2500,
                    seed=8,
                    skew=1.1,
                    write_fraction=0.25,
                )
            }
            result = simulate(machine, workloads, memory_fraction=0.5)
            return summary_fingerprint(result), machine_fingerprint(machine, [1])

        obj, vec = run_both(build)
        assert obj == vec

    def test_run_concurrent_with_epochs_and_resize_timeline(self):
        def build(engine):
            machine = Machine(leap_config(seed=11, n_cores=2, engine=engine))
            epochs = []
            # Shrink pid 1's cgroup mid-run, then grow it back: the
            # resize lands inside bursts, so the kernel must cut every
            # in-flight run at the event time exactly like the oracle.
            timeline = [
                (2_000_000, lambda at: machine.set_memory_limit(1, 48, at)),
                (6_000_000, lambda at: machine.set_memory_limit(1, 96, at)),
            ]
            result = machine.run_concurrent(
                concurrent_workloads(),
                cores=2,
                memory_fraction=0.5,
                timeline=timeline,
                epoch_ns=1_500_000,
                on_epoch=lambda at, sched: epochs.append(at),
            )
            return (
                summary_fingerprint(result),
                machine_fingerprint(machine, [1, 2, 3]),
                epochs,
            )

        obj, vec = run_both(build)
        assert obj == vec

    def test_run_concurrent_access_budget(self):
        # A global budget forces the scheduler's round-robin stop path
        # (and disables the resident-window fast path); the cut must
        # land on the same access under both engines.
        def build(engine):
            machine = Machine(leap_config(seed=11, n_cores=2, engine=engine))
            result = machine.run_concurrent(
                concurrent_workloads(),
                cores=2,
                memory_fraction=0.5,
                max_total_accesses=700,
            )
            return summary_fingerprint(result), machine_fingerprint(machine, [1, 2, 3])

        obj, vec = run_both(build)
        assert obj == vec

    def test_run_concurrent_qp_backpressure(self):
        # A tiny QP depth limit forces prefetch coalescing/deferral on
        # the issue stage; the vectorized fault path must tickle it in
        # the same order the oracle does.
        def build(engine):
            machine = Machine(
                leap_config(seed=11, n_cores=2, qp_depth_limit=2, engine=engine)
            )
            result = machine.run_concurrent(
                concurrent_workloads(), cores=2, memory_fraction=0.4
            )
            return summary_fingerprint(result), machine_fingerprint(machine, [1, 2, 3])

        obj, vec = run_both(build)
        assert obj == vec

    def test_run_cluster_failure_timeline(self):
        def build(engine):
            machine = Machine(
                cluster_config(seed=13, n_cores=2, remote_machines=3, engine=engine)
            )
            result = machine.run_cluster(
                concurrent_workloads(),
                cores=2,
                memory_fraction=0.5,
                failure_plan=[
                    FailureEvent(2_000_000, 0),
                    FailureEvent(5_000_000, 0, action="recover"),
                ],
            )
            return summary_fingerprint(result), machine_fingerprint(machine, [1, 2, 3])

        obj, vec = run_both(build)
        assert obj == vec

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        skew=st.floats(min_value=0.8, max_value=1.4),
        memory_fraction=st.sampled_from([0.3, 0.5, 0.9]),
    )
    def test_property_random_tenant_mixes(self, seed, skew, memory_fraction):
        def build(engine):
            machine = Machine(leap_config(seed=seed, n_cores=2, engine=engine))
            workloads = {
                1: ZipfianWorkload(
                    wss_pages=128, total_accesses=600, seed=seed, skew=skew
                ),
                2: RandomWorkload(
                    wss_pages=128,
                    total_accesses=600,
                    seed=seed + 1,
                    write_fraction=0.3,
                ),
            }
            result = machine.run_concurrent(
                workloads, cores=2, memory_fraction=memory_fraction
            )
            return summary_fingerprint(result), machine_fingerprint(machine, [1, 2])

        obj, vec = run_both(build)
        assert obj == vec


def short_run_workloads(accesses=1500, thinks=(1_000, 1_300, 1_700, 2_300)):
    """Four apps with mismatched think times: under think-time lockstep
    most bursts are 1–3 accesses long, so resident runs take the
    kernel's scalar walk."""
    apps = [PowerGraphWorkload, NumpyMatmulWorkload, VoltDBWorkload, MemcachedWorkload]
    return {
        pid: cls(wss_pages=256, total_accesses=accesses, seed=pid, think_ns=think)
        for pid, (cls, think) in enumerate(zip(apps, thinks), start=1)
    }


@contextlib.contextmanager
def walk_coverage():
    """Count LRU references and kswapd scans made by the scalar walk.

    Both are called straight from ``step_burst_columnar`` only inside
    the walk: the array path references through ``_apply_resident_run``
    and fires scans through ``_fire_scans_in_run``, and the fault path
    goes through the pipeline.
    """
    seen = {"reference": 0, "run_scans": 0}
    reference = ActiveInactiveLRU.reference
    run_scans = FaultPipeline.run_scans

    def from_walk(name, method):
        def wrapper(self, *args):
            if sys._getframe(1).f_code.co_name == "step_burst_columnar":
                seen[name] += 1
            return method(self, *args)

        return wrapper

    patches = (
        mock.patch.object(ActiveInactiveLRU, "reference", from_walk("reference", reference)),
        mock.patch.object(FaultPipeline, "run_scans", from_walk("run_scans", run_scans)),
    )
    with patches[0], patches[1]:
        yield seen


class TestShortRunWalk:
    """Engine parity where the vectorized kernel walks short resident runs."""

    @pytest.mark.parametrize("budget", [None, 3_001])
    @pytest.mark.parametrize("cores", [2, 4])
    def test_walk_matches_object_engine(self, cores, budget):
        # A 30 us kswapd period puts scan due points inside walks, and
        # epoch boundaries every 0.2 ms and the access budget cut
        # bursts mid-walk.
        def build(engine):
            config = leap_config(seed=17, n_cores=cores, kswapd_period_ns=30_000, engine=engine)
            machine = Machine(config)
            epochs = []
            result = machine.run_concurrent(
                short_run_workloads(),
                cores=cores,
                memory_fraction=0.5,
                max_total_accesses=budget,
                epoch_ns=200_000,
                on_epoch=lambda at, sched: epochs.append(at),
            )
            return (
                summary_fingerprint(result),
                machine_fingerprint(machine, [1, 2, 3, 4]),
                epochs,
            )

        with walk_coverage() as seen:
            obj, vec = run_both(build)
        assert obj == vec
        assert seen["reference"] > 100
        assert seen["run_scans"] > 0
        summary, _, epochs = obj
        assert len(epochs) >= 3
        if budget is not None:
            assert sum(summary[pid]["accesses"] for pid in (1, 2, 3, 4)) == budget

    @pytest.mark.parametrize("limit_pages", [128, 256])
    def test_every_burst_stops_where_the_object_loop_does(self, limit_pages):
        # A hand-rolled heap gives bursts budgets and events_at bounds
        # from fixed cycles.  Drivers start together after warmup with
        # think times in small integer ratios, so heap ties occur (all
        # the time once the whole working set fits).  Each burst's
        # length and end clock must match the object loop's, not only
        # the final state.
        def build(engine):
            machine = Machine(
                leap_config(seed=19, n_cores=4, kswapd_period_ns=30_000, engine=engine)
            )
            workloads = short_run_workloads(800, thinks=(1_000, 2_000, 1_500, 3_000))
            start = 0
            for pid in workloads:
                machine.add_process(pid, wss_pages=256, limit_pages=limit_pages)
                start = warmup_process(machine, pid, start_ns=start)
            drivers = [
                make_driver(pid, workload, start_ns=start, engine=engine)
                for pid, workload in workloads.items()
            ]
            heap = [(driver.clock.now, i, driver) for i, driver in enumerate(drivers)]
            heapq.heapify(heap)
            bursts = []
            while heap:
                _, index, driver = heapq.heappop(heap)
                stop = heap[0] if heap else (None, 0)
                turn = len(bursts)
                events_at = driver.clock.now + (turn % 7) * 700 if turn % 3 else None
                budget = 1 + turn % 5 if turn % 2 else None
                ran = driver.step_burst(machine.vmm, index, stop[0], stop[1], events_at, budget)
                bursts.append((driver.pid, ran, driver.clock.now))
                if ran:
                    heapq.heappush(heap, (driver.clock.now, index, driver))
            return bursts, machine_fingerprint(machine, list(workloads))

        with walk_coverage() as seen:
            obj, vec = run_both(build)
        assert obj == vec
        assert seen["reference"] > 100


class TestKernelEdgeCases:
    def test_zero_length_burst_on_exhausted_cursor(self):
        machine = Machine(leap_config(seed=1, engine="vectorized"))
        machine.add_process(1, wss_pages=16, limit_pages=8)
        driver = ProcessDriver(1, trace=None, cursor=ColumnarCursor(iter(())))
        assert driver.step_burst(machine.vmm) == 0
        assert driver.done
        assert driver.accesses == 0

    def test_empty_blocks_are_skipped(self):
        machine = Machine(leap_config(seed=1, engine="vectorized"))
        machine.add_process(1, wss_pages=16, limit_pages=16)
        empty = AccessBlock(
            vpn=np.empty(0, dtype=np.int64),
            is_write=np.empty(0, dtype=np.bool_),
            think_ns=np.empty(0, dtype=np.int64),
        )
        payload = AccessBlock(
            vpn=np.arange(4, dtype=np.int64),
            is_write=np.zeros(4, dtype=np.bool_),
            think_ns=np.full(4, 100, dtype=np.int64),
        )
        driver = ProcessDriver(
            1, trace=None, cursor=ColumnarCursor(iter([empty, payload, empty]))
        )
        while driver.step_burst(machine.vmm):
            pass
        assert driver.accesses == 4
        assert driver.done

    def test_make_driver_rejects_unknown_engine(self):
        workload = SequentialWorkload(wss_pages=8, total_accesses=8)
        with pytest.raises(ValueError, match="engine"):
            make_driver(1, workload, engine="simd")

    def test_driver_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            ProcessDriver(1, trace=None, cursor=None)
        with pytest.raises(ValueError):
            ProcessDriver(
                1, trace=iter(()), cursor=ColumnarCursor(iter(()))
            )

    def test_vectorized_engine_requires_numpy_to_validate(self):
        # numpy is a core dependency, so validation passes; the
        # membership check still rejects unknown engines.
        leap_config(engine="vectorized").validate()
        with pytest.raises(ValueError, match="engine"):
            leap_config(engine="warp").validate()

    def test_heap_interleaving_matches_oracle_exactly(self):
        # Drive two columnar cursors through a hand-rolled min-clock
        # heap (the scheduler's core loop) and compare against the
        # object oracle access by access.
        def build(engine):
            machine = Machine(leap_config(seed=21, n_cores=2, engine=engine))
            workloads = {
                1: SequentialWorkload(wss_pages=64, total_accesses=400, seed=1),
                2: ZipfianWorkload(wss_pages=64, total_accesses=400, seed=2),
            }
            for pid, wl in workloads.items():
                machine.add_process(pid, wss_pages=wl.wss_pages, limit_pages=32)
            drivers = [
                make_driver(pid, wl, engine=engine) for pid, wl in workloads.items()
            ]
            heap = [(d.clock.now, i, d) for i, d in enumerate(drivers)]
            heapq.heapify(heap)
            while heap:
                now, index, driver = heapq.heappop(heap)
                stop = heap[0] if heap else None
                running = driver.step_burst(
                    machine.vmm,
                    index=index,
                    stop_time=stop[0] if stop else None,
                    stop_index=stop[1] if stop else 0,
                )
                if running:
                    heapq.heappush(heap, (driver.clock.now, index, driver))
            return (
                [
                    (d.pid, d.accesses, d.clock.now, dict(d.kind_counts))
                    for d in drivers
                ],
                machine.metrics.as_dict(),
            )

        obj, vec = run_both(build)
        assert obj == vec


@pytest.mark.nightly
@pytest.mark.skipif(
    not os.environ.get("REPRO_NIGHTLY"),
    reason="million-access smoke runs in the nightly workflow (REPRO_NIGHTLY=1)",
)
class TestMillionAccessSmoke:
    def test_seeded_million_access_run_completes(self):
        from repro.perf.profile import run_profile

        artifact, result = run_profile("fig13_scale", seed=42, engine="vectorized")
        total = sum(s.accesses for s in result.processes.values())
        assert total == 4 * 240_000
        for summary in result.processes.values():
            assert sum(summary.kind_counts.values()) == summary.accesses
            assert summary.completion_ns > 0
        assert set(artifact["apps"]) == {
            "zipf-hot",
            "zipf-tail",
            "permloop",
            "phase-shift",
        }
