"""The staged fault pipeline: completion queues, coalescing, batching.

Covers the FaultPipeline/CompletionQueue decomposition: completion-
queue edge cases (duplicate-key coalescing, depth-limit backpressure,
same-tick completions), the no-double-issue guarantee for demand
faults on in-flight prefetches, prefetch-hit feedback parity between
ready and in-flight hits, the hoisted background-reclaim cadence, and
bit-exact equivalence of the batched/burst execution paths with
single-stepped execution.
"""

import heapq

import pytest

from repro.datapath.backends import DiskBackend
from repro.datapath.lean_path import LeanLeapPath
from repro.kernel import ColumnarCursor
from repro.mem.page_cache import EagerFifoPolicy, LazyLRUPolicy, PageCache
from repro.mem.reclaim import KswapdReclaimer
from repro.mem.vmm import AccessKind, VirtualMemoryManager
from repro.prefetchers.base import NoopPrefetcher, Prefetcher
from repro.rdma.completion import CompletionQueue, InflightKind
from repro.sim.machine import Machine, MachineConfig, leap_config
from repro.sim.process import ProcessDriver
from repro.sim.rng import SimRandom
from repro.sim.run import sequential_touch
from repro.sim.scheduler import ConcurrentScheduler, run_processes
from repro.sim.simulate import simulate
from repro.storage.backends import SSDMedium
from repro.workloads.patterns import StrideWorkload, ZipfianWorkload

PID = 1


class NextPagePrefetcher(Prefetcher):
    """Deterministic helper: always prefetches the next ``degree`` pages."""

    name = "next-page-test"

    def __init__(self, degree: int = 1) -> None:
        self.degree = degree
        self.hits: list = []

    def on_fault(self, key, now, cache_hit):
        pass

    def candidates(self, key, now):
        pid, vpn = key
        return [(pid, vpn + i) for i in range(1, self.degree + 1)]

    def on_prefetch_hit(self, key, now):
        self.hits.append(key)


def make_vmm(prefetcher=None, eager=True, limit=64, wss=256, depth_limit=None):
    rng = SimRandom(5, "pipeline-test")
    backend = DiskBackend(SSDMedium(rng.spawn("ssd")))
    path = LeanLeapPath(backend, rng.spawn("path"))
    cache = PageCache(EagerFifoPolicy() if eager else LazyLRUPolicy())
    vmm = VirtualMemoryManager(
        data_path=path,
        cache=cache,
        reclaimer=KswapdReclaimer(cache),
        prefetcher=prefetcher if prefetcher is not None else NoopPrefetcher(),
        completion_queue=CompletionQueue(depth_limit=depth_limit),
    )
    vmm.register_process(PID, limit_pages=limit, address_space_pages=wss)
    return vmm


def materialize(vmm, pages, start=0, think=30_000):
    now = start
    for vpn in range(pages):
        now += think
        now += vmm.access(PID, vpn, now=now).latency_ns
    return now


class TestCompletionQueue:
    def test_issue_and_drain_in_arrival_order(self):
        cq = CompletionQueue()
        cq.issue("b", InflightKind.PREFETCH, 0, 0, 200)
        cq.issue("a", InflightKind.DEMAND, 0, 0, 100)
        assert len(cq) == 2 and "a" in cq and "b" in cq
        retired = cq.drain(150)
        assert [e.key for e in retired] == ["a"]
        assert cq.drain(200)[0].key == "b"
        assert len(cq) == 0 and cq.completed == 2

    def test_same_tick_completion_retires_in_same_drain(self):
        """A zero-latency read (arrival == issue tick) must not linger."""
        cq = CompletionQueue()
        cq.issue("x", InflightKind.PREFETCH, 0, 500, 500)
        retired = cq.drain(500)
        assert [e.key for e in retired] == ["x"]
        assert "x" not in cq

    def test_attach_coalesces_and_counts(self):
        cq = CompletionQueue()
        entry = cq.issue("k", InflightKind.PREFETCH, 0, 0, 1_000)
        attached = cq.attach("k", 400)
        assert attached is entry and entry.waiters == 1
        assert cq.coalesced == 1
        # A key nobody issued cannot coalesce.
        assert cq.attach("unknown", 400) is None
        assert cq.coalesced == 1

    def test_depth_limit_saturation_and_release(self):
        cq = CompletionQueue(depth_limit=2)
        cq.issue("a", InflightKind.PREFETCH, 0, 0, 100)
        cq.issue("b", InflightKind.PREFETCH, 0, 0, 200)
        assert not cq.can_issue(0, now=50)  # both still on the wire
        assert cq.can_issue(1, now=50)  # other cores unaffected
        assert cq.can_issue(0, now=100)  # "a" arrived: slot freed
        assert cq.depth(0) == 1

    def test_reissue_after_drop_shadows_stale_entry(self):
        cq = CompletionQueue()
        cq.issue("k", InflightKind.PREFETCH, 0, 0, 1_000)
        fresh = cq.issue("k", InflightKind.DEMAND, 0, 500, 700)
        assert cq.lookup("k") is fresh
        retired = cq.drain(1_000)  # both wire ops eventually complete
        assert len(retired) == 2 and cq.depth(0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CompletionQueue(depth_limit=0)
        cq = CompletionQueue()
        with pytest.raises(ValueError):
            cq.issue("k", InflightKind.DEMAND, 0, 100, 50)

    def test_reset_stats_keeps_inflight_entries(self):
        cq = CompletionQueue()
        cq.issue("k", InflightKind.PREFETCH, 0, 0, 1_000)
        cq.reset_stats()
        assert cq.issued_prefetch == 0 and len(cq) == 1
        assert cq.peak_depth == 1  # restarts from the live depth


class TestCoalescing:
    def test_demand_fault_on_inflight_prefetch_never_reissues(self):
        """Acceptance: coalescing, not a second read (counter-verified)."""
        prefetcher = NextPagePrefetcher()
        vmm = make_vmm(prefetcher=prefetcher, limit=32, wss=64)
        now = materialize(vmm, 64)  # backing copies exist after overflow
        miss = vmm.access(PID, 10, now=now)
        assert miss.kind is AccessKind.MAJOR_FAULT
        demand_reads = vmm.data_path.demand_reads
        async_reads = vmm.data_path.async_reads
        assert (PID, 11) in vmm.cache  # the prefetch is in flight
        hit = vmm.access(PID, 11, now=now + 1)
        assert hit.kind is AccessKind.CACHE_HIT_INFLIGHT
        # No second read was issued for the coalesced fault.
        assert vmm.data_path.demand_reads == demand_reads
        assert vmm.data_path.async_reads == async_reads
        assert vmm.completion_queue.coalesced == 1
        assert vmm.metrics.coalesced_faults == 1

    def test_inflight_latency_runs_to_arrival(self):
        prefetcher = NextPagePrefetcher()
        vmm = make_vmm(prefetcher=prefetcher, limit=32, wss=64)
        now = materialize(vmm, 64)
        vmm.access(PID, 20, now=now)
        entry = vmm.cache.lookup((PID, 21), now)
        arrival = entry.page.arrival_time
        outcome = vmm.access(PID, 21, now=now + 1)
        assert outcome.latency_ns > arrival - (now + 1)  # lookup+stall+map


class TestHitFeedbackParity:
    """CACHE_HIT_INFLIGHT must feed the prefetcher exactly like CACHE_HIT."""

    def serve_one_hit(self, wait_ns):
        prefetcher = NextPagePrefetcher()
        vmm = make_vmm(prefetcher=prefetcher, limit=32, wss=64)
        now = materialize(vmm, 64)
        vmm.access(PID, 30, now=now)  # miss; prefetches (PID, 31)
        outcome = vmm.access(PID, 31, now=now + wait_ns)
        return vmm, prefetcher, outcome

    def test_ready_hit_feeds_prefetcher(self):
        vmm, prefetcher, outcome = self.serve_one_hit(wait_ns=50_000_000)
        assert outcome.kind is AccessKind.CACHE_HIT
        assert outcome.served_by_prefetch
        assert prefetcher.hits == [(PID, 31)]
        assert vmm.metrics.prefetch_hits == 1
        assert vmm.cache.stats.ready_hits == 1

    def test_inflight_hit_feeds_prefetcher_identically(self):
        vmm, prefetcher, outcome = self.serve_one_hit(wait_ns=1)
        assert outcome.kind is AccessKind.CACHE_HIT_INFLIGHT
        assert outcome.served_by_prefetch
        assert prefetcher.hits == [(PID, 31)]
        assert vmm.metrics.prefetch_hits == 1
        assert vmm.metrics.inflight_hits == 1
        assert vmm.cache.stats.inflight_hits == 1


class TestBackpressure:
    def test_depth_limit_clips_prefetch_rounds(self):
        wide = NextPagePrefetcher(degree=8)
        limited = make_vmm(prefetcher=wide, limit=64, wss=256, depth_limit=2)
        now = materialize(limited, 256)
        for vpn in range(0, 64, 16):  # spaced misses, each wants 8 reads
            now += 10_000
            now += limited.access(PID, vpn, now=now).latency_ns
        assert limited.metrics.prefetch_backpressured > 0
        assert limited.completion_queue.rejected > 0
        # Prefetches never exceed the cap; the one blocking demand read
        # rides on top (demand is never refused by the depth limit).
        assert limited.metrics.inflight_peak <= 2 + 1
        assert limited.completion_queue.issued_prefetch < 8 * 4

    def test_unlimited_queue_never_backpressures(self):
        wide = NextPagePrefetcher(degree=8)
        vmm = make_vmm(prefetcher=wide, limit=64, wss=256, depth_limit=None)
        now = materialize(vmm, 256)
        for vpn in range(0, 64, 16):
            now += 10_000
            now += vmm.access(PID, vpn, now=now).latency_ns
        assert vmm.metrics.prefetch_backpressured == 0
        assert vmm.completion_queue.rejected == 0

    def test_machine_config_validates_depth_limit(self):
        with pytest.raises(ValueError):
            MachineConfig(qp_depth_limit=0).validate()
        machine = Machine(leap_config(qp_depth_limit=4))
        assert machine.vmm.completion_queue.depth_limit == 4


class TestScanCadence:
    """The hoisted reclaim check must not change scan timing."""

    def run_stream(self, use_batch: bool, chunk: int = 16):
        vmm = make_vmm(eager=False, limit=32, wss=128)
        think = 1_000_000  # spans several 100ms scan periods overall
        vpns = [(step * 5) % 128 for step in range(400)]
        outcomes = []
        t = 0
        if use_batch:
            for start in range(0, len(vpns), chunk):
                batch = vpns[start : start + chunk]
                t += think
                got = vmm.access_batch(PID, batch, t, think_ns=think)
                outcomes.extend(got)
                for outcome in got:
                    t += outcome.latency_ns + think
                t -= think  # the loop re-adds the leading think
        else:
            for vpn in vpns:
                t += think
                outcome = vmm.access(PID, vpn, t)
                outcomes.append(outcome)
                t += outcome.latency_ns
        return vmm, outcomes

    def test_batch_path_preserves_scan_cadence_and_outcomes(self):
        loop_vmm, loop_outcomes = self.run_stream(use_batch=False)
        batch_vmm, batch_outcomes = self.run_stream(use_batch=True)
        assert loop_vmm.reclaimer.scans == batch_vmm.reclaimer.scans
        assert loop_vmm.reclaimer._last_scan == batch_vmm.reclaimer._last_scan
        assert loop_vmm.reclaimer.freed == batch_vmm.reclaimer.freed
        assert [(o.kind, o.latency_ns) for o in loop_outcomes] == [
            (o.kind, o.latency_ns) for o in batch_outcomes
        ]

    def test_scans_fire_on_period_boundaries(self):
        vmm = make_vmm(eager=False, limit=16, wss=64)
        period = vmm.reclaimer.scan_period_ns
        materialize(vmm, 64, think=period // 8)
        assert vmm.reclaimer.scans > 0
        assert vmm.reclaimer._last_scan % period == 0


class SingleStepDriver(ProcessDriver):
    """A driver whose bursts are clamped to one access.

    Running the same schedule with and without bursting and comparing
    every simulated number is the regression net for the burst engine's
    stop conditions (heap order, timeline events, epochs, budgets).
    """

    def step_burst(self, vmm, index=0, stop_time=None, stop_index=0, events_at=None, budget=None):
        return super().step_burst(vmm, index, stop_time, stop_index, events_at, budget=1)


def driver_fingerprint(driver: ProcessDriver):
    return (
        driver.pid,
        driver.accesses,
        driver.clock.now,
        driver.finished_ns,
        dict(driver.kind_counts),
        driver.total_fault_latency_ns,
        tuple(driver.fault_latencies),
        driver.core_wait_ns,
        driver.migrations,
    )


def mixed_workloads():
    return {
        1: ZipfianWorkload(wss_pages=192, total_accesses=1500, seed=3),
        2: StrideWorkload(wss_pages=192, total_accesses=1500, seed=4, stride=7),
    }


class TestBurstEquivalence:
    def build(self, driver_cls):
        machine = Machine(leap_config(seed=11, n_cores=2))
        workloads = mixed_workloads()
        for pid, wl in workloads.items():
            machine.add_process(pid, wss_pages=wl.wss_pages, limit_pages=96)
        start = 0
        for pid in workloads:
            process = machine.vmm.process(pid)
            pages = process.address_space_pages
            driver = driver_cls(pid, sequential_touch(pages), start_ns=start)
            while driver.step_burst(machine.vmm):
                pass
            start = max(start, driver.finished_ns)
        machine.reset_measurements()
        drivers = [
            driver_cls(pid, ColumnarCursor(wl.columnar_blocks()).tuples(), start_ns=start)
            for pid, wl in workloads.items()
        ]
        return machine, drivers, start

    def test_min_clock_burst_matches_single_stepping(self):
        machine_a, drivers_a, _ = self.build(ProcessDriver)
        run_processes(machine_a, drivers_a)
        machine_b, drivers_b, _ = self.build(ProcessDriver)
        heap = []
        for idx, driver in enumerate(drivers_b):
            heapq.heappush(heap, (driver.clock.now, idx, driver))
        while heap:
            _, idx, driver = heapq.heappop(heap)
            if driver.step(machine_b.vmm):
                heapq.heappush(heap, (driver.clock.now, idx, driver))
        assert [driver_fingerprint(d) for d in drivers_a] == [
            driver_fingerprint(d) for d in drivers_b
        ]
        assert machine_a.metrics.as_dict() == machine_b.metrics.as_dict()

    def test_concurrent_burst_matches_clamped_bursts(self):
        results = {}
        for label, driver_cls in (("burst", ProcessDriver), ("step", SingleStepDriver)):
            machine, drivers, start = self.build(driver_cls)
            fired = []
            scheduler = ConcurrentScheduler(
                machine,
                drivers,
                cores=2,
                timeline=[(start + 2_000_000, lambda at: fired.append(at))],
                epoch_ns=5_000_000,
                on_epoch=lambda at, sched: None,
            )
            result = scheduler.run()
            metrics = machine.metrics.as_dict()
            # The in-flight high-water mark is observed between drains,
            # and drain points differ by burst size — bookkeeping, not
            # simulated physics, so it is excluded from the comparison.
            metrics.pop("inflight_peak")
            results[label] = (
                [driver_fingerprint(d) for d in drivers],
                metrics,
                {cid: (c.busy_ns, c.accesses) for cid, c in result.cores.items()},
                scheduler.epochs_fired,
                fired,
            )
        assert results["burst"] == results["step"]


class TestAccessBatch:
    def test_matches_sequential_access_calls(self):
        vmm_a = make_vmm(prefetcher=NextPagePrefetcher(), limit=32, wss=128)
        vmm_b = make_vmm(prefetcher=NextPagePrefetcher(), limit=32, wss=128)
        vpns = [v % 128 for v in range(0, 512, 3)]
        think = 20_000
        batched = vmm_a.access_batch(PID, vpns, now=1_000, think_ns=think)
        sequential = []
        t = 1_000
        for vpn in vpns:
            outcome = vmm_b.access(PID, vpn, t)
            sequential.append(outcome)
            t += outcome.latency_ns + think
        assert [(o.kind, o.latency_ns, o.key) for o in batched] == [
            (o.kind, o.latency_ns, o.key) for o in sequential
        ]
        assert vmm_a.metrics.as_dict() == vmm_b.metrics.as_dict()

    def test_all_run_paths_share_the_pipeline(self):
        """simulate / run_concurrent drive the same FaultPipeline object."""
        machine = Machine(leap_config(seed=7))
        assert machine.vmm.pipeline.cq is machine.vmm.completion_queue
        simulate(
            machine,
            {1: ZipfianWorkload(wss_pages=128, total_accesses=400, seed=5)},
            memory_fraction=0.5,
        )
        assert machine.vmm.completion_queue.stats()["issued_demand"] > 0

    def test_concurrent_run_populates_pipeline_counters(self):
        machine = Machine(leap_config(seed=7, n_cores=2))
        machine.run_concurrent(
            {
                1: ZipfianWorkload(wss_pages=128, total_accesses=600, seed=5),
                2: StrideWorkload(wss_pages=128, total_accesses=600, seed=6, stride=3),
            },
            cores=2,
        )
        stats = machine.vmm.completion_queue.stats()
        assert stats["issued_demand"] > 0
        assert stats["issued_prefetch"] > 0
        assert machine.metrics.inflight_peak >= 1
