"""Tests for storage media models and the kswapd reclaimer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.page import Page, PageFlags
from repro.mem.page_cache import EagerFifoPolicy, LazyLRUPolicy, PageCache
from repro.mem.reclaim import AllocationWaitModel, KswapdReclaimer
from repro.sim.rng import SimRandom
from repro.sim.units import ms, us
from repro.storage.backends import HDDMedium, SSDMedium


def median_of(samples):
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


class TestHDD:
    def test_sequential_cheaper_than_near_cheaper_than_seek(self):
        hdd = HDDMedium(SimRandom(1, "hdd"))
        sequential = [hdd.read_page(i) for i in range(1, 1_000)]
        near = []
        for i in range(500):
            hdd.read_page(0)
            near.append(hdd.read_page(100))
        far = []
        for i in range(500):
            hdd.read_page(0)
            far.append(hdd.read_page(1_000_000))
        assert median_of(sequential) < median_of(near) < median_of(far)

    def test_first_access_is_a_seek(self):
        hdd = HDDMedium(SimRandom(1, "hdd"))
        assert hdd.read_page(0) > us(100)

    def test_write_head_independent_of_read_head(self):
        hdd = HDDMedium(SimRandom(1, "hdd"))
        hdd.read_page(1_000_000)
        hdd.write_page(0)
        # Writes at the frontier stay sequential regardless of reads.
        samples = [hdd.write_page(i) for i in range(1, 500)]
        assert median_of(samples) < us(60)

    def test_stats_track_sequential_reads(self):
        hdd = HDDMedium(SimRandom(1, "hdd"))
        for i in range(10):
            hdd.read_page(i)
        assert hdd.stats.reads == 10
        assert hdd.stats.sequential_reads == 9


class TestSSD:
    def test_reads_fast_and_locality_mild(self):
        ssd = SSDMedium(SimRandom(1, "ssd"))
        nearby = [ssd.read_page(i) for i in range(1_000)]
        assert us(10) < median_of(nearby) < us(35)

    def test_scattered_reads_slower(self):
        ssd = SSDMedium(SimRandom(1, "ssd"))
        scattered = [ssd.read_page(i * 10_000) for i in range(500)]
        assert median_of(scattered) > us(70)

    def test_writes_slower_than_reads(self):
        ssd = SSDMedium(SimRandom(1, "ssd"))
        reads = [ssd.read_page(i) for i in range(500)]
        writes = [ssd.write_page(i) for i in range(500)]
        assert median_of(writes) > median_of(reads)


class TestAllocationWaitModel:
    def test_base_cost_when_clean(self):
        model = AllocationWaitModel()
        assert model.wait_ns(0) == model.base_ns

    def test_stale_pages_add_up_to_cap(self):
        model = AllocationWaitModel()
        # The paper's measured gap: eager eviction saves ~750 ns (36%).
        assert model.wait_ns(10_000) == model.base_ns + model.max_extra_ns
        assert model.max_extra_ns == 750

    def test_monotone_in_staleness(self):
        model = AllocationWaitModel()
        waits = [model.wait_ns(n) for n in (0, 10, 50, 100, 1_000)]
        assert waits == sorted(waits)


def cached_page(vpn, prefetched=True):
    page = Page(key=(1, vpn))
    if prefetched:
        page.set_flag(PageFlags.PREFETCHED)
    return page


class TestKswapd:
    def test_periodic_scan_frees_consumed(self):
        cache = PageCache(LazyLRUPolicy())
        reclaimer = KswapdReclaimer(cache, scan_period_ns=ms(1), scan_batch=8)
        for vpn in range(4):
            cache.insert(cached_page(vpn), now=0, prefetched=True)
            cache.consume((1, vpn), now=0)
        assert reclaimer.maybe_scan(now=ms(0.5)) == []
        # The two-list LRU demotes consumed (active) pages gradually:
        # each period's scan rebalances then frees the inactive half.
        first = reclaimer.maybe_scan(now=ms(1.5))
        assert len(first) == 2
        second = reclaimer.maybe_scan(now=ms(2.5))
        third = reclaimer.maybe_scan(now=ms(3.5))
        assert len(first) + len(second) + len(third) == 4
        assert len(cache) == 0
        assert reclaimer.scans >= 3

    def test_scan_catches_up_after_long_gap(self):
        cache = PageCache(LazyLRUPolicy())
        reclaimer = KswapdReclaimer(cache, scan_period_ns=ms(1), scan_batch=1)
        for vpn in range(3):
            cache.insert(cached_page(vpn), now=0, prefetched=True)
            cache.consume((1, vpn), now=0)
        freed = reclaimer.maybe_scan(now=ms(10))
        assert len(freed) == 3  # several periods' worth of batches

    def test_allocation_wait_reflects_staleness(self):
        cache = PageCache(LazyLRUPolicy())
        reclaimer = KswapdReclaimer(cache, scan_period_ns=ms(100))
        clean_wait = reclaimer.allocation_wait_ns(now=0)
        for vpn in range(200):
            cache.insert(cached_page(vpn), now=0, prefetched=True)
            cache.consume((1, vpn), now=0)
        dirty_wait = reclaimer.allocation_wait_ns(now=0)
        assert dirty_wait > clean_wait

    def test_validation(self):
        cache = PageCache(LazyLRUPolicy())
        with pytest.raises(ValueError):
            KswapdReclaimer(cache, scan_period_ns=0)
        with pytest.raises(ValueError):
            KswapdReclaimer(cache, scan_batch=0)


def loop_maybe_scan(reclaimer: KswapdReclaimer, now: int) -> list:
    """Oracle: the scan-every-period loop ``maybe_scan`` used to run.

    The production method counts idle periods in one step; this scans
    each of them, so the two must agree on ``scans``, ``freed``, the
    scan clock and the returned entries.
    """
    freed = []
    while now - reclaimer._last_scan >= reclaimer.scan_period_ns:
        reclaimer._last_scan += reclaimer.scan_period_ns
        batch = reclaimer.cache.scan(reclaimer._last_scan, reclaimer.scan_batch)
        freed.extend(batch)
        reclaimer.scans += 1
        reclaimer.freed += len(batch)
        if not batch and reclaimer._last_scan + reclaimer.scan_period_ns > now:
            break
    return freed


_RECLAIM_STEPS = st.lists(
    st.one_of(
        # Insert a page that lands `delay` ns from now (in flight until then).
        st.tuples(st.just("insert"), st.integers(0, 63), st.integers(0, 3_000)),
        st.tuples(st.just("consume"), st.integers(0, 63), st.just(0)),
        # Advance the clock by `gap` ns, then let kswapd catch up.
        st.tuples(st.just("scan"), st.just(0), st.integers(0, 40_000)),
    ),
    max_size=60,
)


class TestKswapdCatchUp:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        lazy=st.booleans(),
        period=st.integers(1, 1_000),
        batch=st.integers(1, 8),
        steps=_RECLAIM_STEPS,
    )
    def test_matches_the_per_period_loop(self, lazy, period, batch, steps):
        """Both policies, any clock: identical to scanning every period."""
        runs = []
        for scan in (KswapdReclaimer.maybe_scan, loop_maybe_scan):
            policy = LazyLRUPolicy() if lazy else EagerFifoPolicy()
            cache = PageCache(policy)
            reclaimer = KswapdReclaimer(cache, scan_period_ns=period, scan_batch=batch)
            now, trail = 0, []
            for op, vpn, amount in steps:
                key = (1, vpn)
                if op == "insert" and key not in cache:
                    page = cached_page(vpn)
                    page.arrival_time = now + amount
                    cache.insert(page, now=now, prefetched=True)
                elif op == "consume" and key in cache:
                    cache.consume(key, now=now)
                elif op == "scan":
                    now += amount
                    freed = scan(reclaimer, now)
                    trail.append([entry.page.key for entry in freed])
                    trail.append((reclaimer.scans, reclaimer.freed, reclaimer._last_scan))
            trail.append(list(cache.entries))
            runs.append(trail)
        assert runs[0] == runs[1]

    def test_idle_gap_is_counted_without_scanning(self):
        cache = PageCache(EagerFifoPolicy())
        reclaimer = KswapdReclaimer(cache, scan_period_ns=ms(50))
        assert reclaimer.maybe_scan(10**15) == []
        assert reclaimer.scans == 10**15 // ms(50)
        assert reclaimer.next_scan_due_ns == 10**15 + ms(50)
