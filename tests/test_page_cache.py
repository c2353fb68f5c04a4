"""Tests for the page cache and its eviction policies."""

import random

import pytest

from repro.mem.page import Page, PageFlags
from repro.mem.page_cache import EagerFifoPolicy, LazyLRUPolicy, PageCache


def make_page(vpn, arrival=0, prefetched=True):
    page = Page(key=(1, vpn), arrival_time=arrival)
    if prefetched:
        page.set_flag(PageFlags.PREFETCHED)
    return page


class TestInsertLookupConsume:
    def test_insert_and_lookup(self):
        cache = PageCache(LazyLRUPolicy())
        cache.insert(make_page(1), now=0, prefetched=True)
        entry = cache.lookup((1, 1), now=0)
        assert entry is not None
        assert entry.page.vpn == 1

    def test_double_insert_rejected(self):
        cache = PageCache(LazyLRUPolicy())
        cache.insert(make_page(1), now=0, prefetched=True)
        with pytest.raises(ValueError):
            cache.insert(make_page(1), now=0, prefetched=True)

    def test_consume_missing_raises(self):
        cache = PageCache(LazyLRUPolicy())
        with pytest.raises(KeyError):
            cache.consume((1, 1), now=0)

    def test_stats_count_adds(self):
        cache = PageCache(LazyLRUPolicy())
        cache.insert(make_page(1), now=0, prefetched=True)
        cache.insert(make_page(2, prefetched=False), now=0, prefetched=False)
        assert cache.stats.prefetch_adds == 1
        assert cache.stats.demand_adds == 1
        assert cache.stats.total_adds == 2


class TestLazyPolicy:
    def test_consumed_entry_lingers(self):
        cache = PageCache(LazyLRUPolicy())
        cache.insert(make_page(1), now=0, prefetched=True)
        cache.consume((1, 1), now=10)
        assert (1, 1) in cache, "lazy policy keeps consumed entries"
        assert cache.stale_count(now=10) == 1

    def test_background_scan_frees_consumed(self):
        cache = PageCache(LazyLRUPolicy())
        cache.insert(make_page(1), now=0, prefetched=True)
        cache.consume((1, 1), now=10)
        freed = cache.scan(now=1000, max_scan=10)
        assert len(freed) == 1
        assert (1, 1) not in cache

    def test_scan_records_stale_wait(self):
        cache = PageCache(LazyLRUPolicy())
        cache.insert(make_page(1), now=0, prefetched=True)
        cache.consume((1, 1), now=100)
        cache.scan(now=5_000, max_scan=10)
        assert cache.stats.stale_wait_ns == [4_900]

    def test_scan_keeps_inflight_pages(self):
        cache = PageCache(LazyLRUPolicy())
        cache.insert(make_page(1, arrival=10_000), now=0, prefetched=True)
        freed = cache.scan(now=100, max_scan=10)
        assert freed == []
        assert (1, 1) in cache

    def test_capacity_evicts_cold_ready_entry(self):
        cache = PageCache(LazyLRUPolicy(), capacity_pages=2)
        cache.insert(make_page(1), now=0, prefetched=True)
        cache.insert(make_page(2), now=1, prefetched=True)
        evicted = cache.insert(make_page(3), now=2, prefetched=True)
        assert len(evicted) == 1
        assert evicted[0].key == (1, 1)
        assert len(cache) == 2

    def test_victims_match_full_list_choice(self):
        """The lazy victim walk picks what a scan of the materialized
        coldest-first key list picks, through churn, in-flight pages,
        promotions, scans and capacity evictions."""

        def list_based_victim(cache, now):
            for key in cache.lru.keys_eviction_order():
                entry = cache.entries.get(key)
                if entry is not None and entry.page.is_ready(now):
                    return key
            return None

        rng = random.Random(5)
        policy = LazyLRUPolicy()
        cache = PageCache(policy, capacity_pages=24)
        chosen = []
        for now in range(0, 6_000, 10):
            if cache.entries:
                expected = list_based_victim(cache, now)
                assert policy.pick_victim(cache, now) == expected
                chosen.append(expected)
            vpn = rng.randrange(120)
            if (1, vpn) not in cache:
                cache.insert(make_page(vpn, arrival=now + rng.randrange(400)), now, True)
            elif rng.random() < 0.5:
                cache.consume((1, vpn), now)
            if rng.random() < 0.05:
                cache.scan(now, max_scan=3)
        assert len(set(chosen)) > 50
        assert None in chosen  # some walks found every entry in flight


class TestEagerPolicy:
    def test_consume_frees_immediately(self):
        cache = PageCache(EagerFifoPolicy())
        cache.insert(make_page(1), now=0, prefetched=True)
        cache.consume((1, 1), now=10)
        assert (1, 1) not in cache
        assert cache.stats.evicted_consumed == 1

    def test_eager_wait_time_is_zero(self):
        cache = PageCache(EagerFifoPolicy())
        cache.insert(make_page(1), now=0, prefetched=True)
        cache.consume((1, 1), now=10)
        assert cache.stats.stale_wait_ns == [0]

    def test_fifo_victim_is_oldest_ready(self):
        cache = PageCache(EagerFifoPolicy(), capacity_pages=2)
        cache.insert(make_page(1, arrival=0), now=0, prefetched=True)
        cache.insert(make_page(2, arrival=0), now=1, prefetched=True)
        evicted = cache.insert(make_page(3, arrival=0), now=2, prefetched=True)
        assert [e.key for e in evicted] == [(1, 1)]

    def test_fifo_skips_inflight(self):
        cache = PageCache(EagerFifoPolicy(), capacity_pages=2)
        cache.insert(make_page(1, arrival=10_000), now=0, prefetched=True)
        cache.insert(make_page(2, arrival=0), now=1, prefetched=True)
        evicted = cache.insert(make_page(3, arrival=0), now=2, prefetched=True)
        assert [e.key for e in evicted] == [(1, 2)]

    def test_background_scan_is_a_noop(self):
        cache = PageCache(EagerFifoPolicy())
        cache.insert(make_page(1), now=0, prefetched=True)
        assert cache.scan(now=10_000, max_scan=10) == []
        assert (1, 1) in cache  # unconsumed entries stay until hit/evicted

    def test_stale_count_always_zero(self):
        cache = PageCache(EagerFifoPolicy())
        cache.insert(make_page(1), now=0, prefetched=True)
        cache.consume((1, 1), now=5)
        assert cache.stale_count(now=5) == 0


class TestFreeCallbackAndDrop:
    def test_on_free_called_with_entry(self):
        cache = PageCache(EagerFifoPolicy())
        freed = []
        cache.on_free = lambda entry, now: freed.append((entry.key, now))
        cache.insert(make_page(1), now=0, prefetched=True)
        cache.consume((1, 1), now=7)
        assert freed == [((1, 1), 7)]

    def test_drop_unknown_returns_none(self):
        cache = PageCache(LazyLRUPolicy())
        assert cache.drop((9, 9), now=0) is None

    def test_drop_counts_unused_eviction(self):
        cache = PageCache(LazyLRUPolicy())
        cache.insert(make_page(1), now=0, prefetched=True)
        cache.drop((1, 1), now=50)
        assert cache.stats.evicted_unused == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PageCache(LazyLRUPolicy(), capacity_pages=0)
