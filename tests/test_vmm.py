"""Integration tests for the VMM fault path and its accounting."""

import pytest

from repro.datapath.lean_path import LeanLeapPath
from repro.datapath.block_layer import LegacyBlockPath
from repro.datapath.backends import DiskBackend
from repro.core.sharded_tracker import ShardedLeapTracker
from repro.mem.page_cache import EagerFifoPolicy, LazyLRUPolicy, PageCache
from repro.mem.reclaim import KswapdReclaimer
from repro.mem.vmm import AccessKind, VirtualMemoryManager
from repro.prefetchers.base import NoopPrefetcher
from repro.sim.rng import SimRandom
from repro.storage.backends import SSDMedium

PID = 1


def make_vmm(prefetcher=None, eager=True, limit=64, wss=256, cache_capacity=None):
    rng = SimRandom(5, "vmm-test")
    backend = DiskBackend(SSDMedium(rng.spawn("ssd")))
    if eager:
        path = LeanLeapPath(backend, rng.spawn("path"))
        policy = EagerFifoPolicy()
    else:
        path = LegacyBlockPath(backend, rng.spawn("path"))
        policy = LazyLRUPolicy()
    cache = PageCache(policy, capacity_pages=cache_capacity)
    vmm = VirtualMemoryManager(
        data_path=path,
        cache=cache,
        reclaimer=KswapdReclaimer(cache),
        prefetcher=prefetcher if prefetcher is not None else NoopPrefetcher(),
    )
    vmm.register_process(PID, limit_pages=limit, address_space_pages=wss)
    return vmm


def charges_consistent(vmm, pid=PID):
    """Invariant: cgroup charges == resident pages + unconsumed cache."""
    process = vmm.process(pid)
    cache_unconsumed = sum(
        1
        for entry in vmm.cache.entries.values()
        if entry.key[0] == pid and not entry.consumed
    )
    return process.cgroup.charged_pages == (
        process.page_table.resident_count + cache_unconsumed
    )


class TestFaultKinds:
    def test_first_touch_is_minor_fault(self):
        vmm = make_vmm()
        outcome = vmm.access(PID, 0, now=0)
        assert outcome.kind is AccessKind.MINOR_FAULT

    def test_second_touch_is_resident(self):
        vmm = make_vmm()
        vmm.access(PID, 0, now=0)
        outcome = vmm.access(PID, 0, now=1_000)
        assert outcome.kind is AccessKind.RESIDENT
        assert outcome.latency_ns == 0

    def test_evicted_page_major_faults(self):
        vmm = make_vmm(limit=8, wss=64)
        now = 0
        for vpn in range(16):  # overflow the 8-page limit
            now += 50_000
            vmm.access(PID, vpn, now=now)
        outcome = vmm.access(PID, 0, now=now + 50_000)
        assert outcome.kind is AccessKind.MAJOR_FAULT
        assert outcome.latency_ns > 1_000

    def test_out_of_range_vpn_rejected(self):
        vmm = make_vmm(wss=16)
        with pytest.raises(ValueError):
            vmm.access(PID, 16, now=0)
        with pytest.raises(ValueError):
            vmm.access(PID, -1, now=0)

    def test_unknown_pid_rejected(self):
        vmm = make_vmm()
        with pytest.raises(KeyError):
            vmm.access(999, 0, now=0)

    def test_duplicate_registration_rejected(self):
        vmm = make_vmm()
        with pytest.raises(ValueError):
            vmm.register_process(PID, limit_pages=4, address_space_pages=4)


class TestPrefetchIntegration:
    def run_stride(self, vmm, stride=4, count=200, think=30_000):
        now = 0
        outcomes = []
        position = 0
        for _ in range(count):
            now += think
            outcome = vmm.access(PID, position % 256, now=now)
            now += outcome.latency_ns
            outcomes.append(outcome)
            position += stride
        return outcomes

    def test_leap_turns_misses_into_cache_hits(self):
        vmm = make_vmm(prefetcher=ShardedLeapTracker(), limit=64, wss=256)
        # Materialize and overflow once so pages have backing copies.
        now = 0
        for vpn in range(256):
            now += 20_000
            outcome = vmm.access(PID, vpn, now=now)
            now += outcome.latency_ns
        outcomes = self.run_stride(vmm)
        kinds = [o.kind for o in outcomes]
        hits = sum(
            1
            for k in kinds
            if k in (AccessKind.CACHE_HIT, AccessKind.CACHE_HIT_INFLIGHT)
        )
        misses = sum(1 for k in kinds if k is AccessKind.MAJOR_FAULT)
        assert hits > misses, f"{hits} hits vs {misses} misses"
        assert vmm.metrics.prefetch_issued > 0
        assert vmm.metrics.prefetch_hits > 0

    def test_prefetched_hit_faster_than_miss(self):
        vmm = make_vmm(prefetcher=ShardedLeapTracker(), limit=64, wss=256)
        now = 0
        for vpn in range(256):
            now += 20_000
            now += vmm.access(PID, vpn, now=now).latency_ns
        outcomes = self.run_stride(vmm)
        hit_lat = [o.latency_ns for o in outcomes if o.kind is AccessKind.CACHE_HIT]
        miss_lat = [o.latency_ns for o in outcomes if o.kind is AccessKind.MAJOR_FAULT]
        if hit_lat and miss_lat:
            assert sorted(hit_lat)[len(hit_lat) // 2] < min(miss_lat)

    def test_charge_invariant_through_prefetching(self):
        vmm = make_vmm(prefetcher=ShardedLeapTracker(), limit=32, wss=128)
        now = 0
        position = 0
        for step in range(400):
            now += 25_000
            vpn = position % 128
            outcome = vmm.access(PID, vpn, now=now)
            now += outcome.latency_ns
            position += 3 if step % 7 else 11  # mostly stride, some noise
            assert charges_consistent(vmm), f"broken at step {step}"
            process = vmm.process(PID)
            assert process.page_table.resident_count <= process.cgroup.limit_pages

    def test_lazy_policy_charge_invariant(self):
        vmm = make_vmm(prefetcher=ShardedLeapTracker(), eager=False, limit=32, wss=128)
        now = 0
        for step in range(300):
            now += 25_000
            outcome = vmm.access(PID, (step * 5) % 128, now=now)
            now += outcome.latency_ns
            assert charges_consistent(vmm), f"broken at step {step}"


class TestEviction:
    def test_residency_never_exceeds_limit(self):
        vmm = make_vmm(limit=16, wss=128)
        now = 0
        for vpn in range(128):
            now += 30_000
            now += vmm.access(PID, vpn, now=now).latency_ns
        assert vmm.process(PID).page_table.resident_count <= 16

    def test_dirty_pages_write_back(self):
        vmm = make_vmm(limit=8, wss=32)
        now = 0
        for vpn in range(32):
            now += 30_000
            now += vmm.access(PID, vpn, now=now, is_write=True).latency_ns
        assert vmm.process(PID).writebacks > 0
        assert vmm.data_path.async_writes > 0

    def test_eviction_drops_stale_cache_entry(self):
        """A page evicted while (lazily) cached must not phantom-hit."""
        vmm = make_vmm(prefetcher=ShardedLeapTracker(), eager=False, limit=16, wss=64)
        now = 0
        for sweep in range(3):
            for vpn in range(64):
                now += 25_000
                now += vmm.access(PID, vpn, now=now).latency_ns
        # Every cached entry for a resident page must be consumed-only,
        # and no non-resident page may have a consumed entry.
        process = vmm.process(PID)
        for key, entry in vmm.cache.entries.items():
            if entry.consumed:
                assert process.page_table.is_resident(key[1]), key
