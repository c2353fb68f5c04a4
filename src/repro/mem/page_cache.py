"""The page cache (swap cache) and its eviction policies.

Pages fetched from the backing store — by demand or by a prefetcher —
live here until they are mapped into a process, and possibly longer:
under the kernel's **lazy** policy a consumed entry stays on the LRU
lists until ``kswapd`` scans it out, wasting cache space for seconds at
a time (Figure 4) and lengthening every reclaim scan.  Leap's **eager**
policy (§4.3) frees an entry the moment its page is mapped and keeps
unconsumed prefetched pages on a FIFO (`PrefetchFifoLruList` in the
paper) so that forced evictions take the oldest speculation first.

The cache has an optional capacity (Figure 12 constrains it to 320 MB /
32 MB / 3.2 MB); inserting past capacity forces the policy to pick a
victim immediately.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.mem.lru import ActiveInactiveLRU
from repro.mem.page import Page, PageFlags, PageKey

__all__ = [
    "CacheEntry",
    "CacheStats",
    "EvictionPolicy",
    "LazyLRUPolicy",
    "EagerFifoPolicy",
    "PageCache",
]


@dataclass(slots=True)
class CacheEntry:
    """One cached page plus its lifecycle timestamps."""

    page: Page
    inserted_at: int
    consumed_at: int | None = None

    @property
    def key(self) -> PageKey:
        return self.page.key

    @property
    def consumed(self) -> bool:
        return self.consumed_at is not None


@dataclass(slots=True)
class CacheStats:
    """Counters for the cache-behaviour figures (9a, 10, 12)."""

    demand_adds: int = 0
    prefetch_adds: int = 0
    ready_hits: int = 0
    inflight_hits: int = 0
    misses: int = 0
    evicted_unused: int = 0
    evicted_consumed: int = 0
    #: Figure 4 samples — ns each freed entry sat in cache after it was
    #: consumed (or after arrival, for entries evicted unused).
    stale_wait_ns: list[int] = field(default_factory=list)

    @property
    def total_adds(self) -> int:
        return self.demand_adds + self.prefetch_adds

    @property
    def total_hits(self) -> int:
        return self.ready_hits + self.inflight_hits


class PageCache:
    """Capacity-bounded store of fetched-but-unmapped pages."""

    def __init__(self, policy: "EvictionPolicy", capacity_pages: int | None = None) -> None:
        if capacity_pages is not None and capacity_pages <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity_pages}")
        self.policy = policy
        self.capacity_pages = capacity_pages
        self.stats = CacheStats()
        self.entries: dict[PageKey, CacheEntry] = {}
        #: LRU structure used by the lazy policy's scans.
        self.lru: ActiveInactiveLRU[PageKey, CacheEntry] = ActiveInactiveLRU()
        #: Observer invoked whenever an entry is freed (the VMM uses it
        #: to return the entry's memory charge to the owning cgroup).
        self.on_free = None
        #: Consumed-but-not-freed entries, maintained incrementally so
        #: the allocation-wait model can poll it on every single fault.
        self._consumed_count = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: PageKey) -> bool:
        return key in self.entries

    # -- queries ---------------------------------------------------------
    def lookup(self, key: PageKey, now: int) -> CacheEntry | None:
        """Find *key* in the cache without consuming it."""
        return self.entries.get(key)

    def stale_count(self, now: int) -> int:
        """Entries that are dead weight: consumed but not yet freed."""
        return self._consumed_count

    # -- mutation ----------------------------------------------------------
    def insert(self, page: Page, now: int, prefetched: bool) -> list[CacheEntry]:
        """Add a fetched page; returns entries evicted to make room."""
        if page.key in self.entries:
            raise ValueError(f"page {page.key} is already cached")
        entry = CacheEntry(page=page, inserted_at=now)
        self.entries[page.key] = entry
        self.lru.add(page.key, entry)
        if prefetched:
            self.stats.prefetch_adds += 1
        else:
            self.stats.demand_adds += 1
        evicted: list[CacheEntry] = []
        while self.capacity_pages is not None and len(self.entries) > self.capacity_pages:
            victim = self.policy.pick_victim(self, now)
            if victim is None:
                break
            evicted.append(self._free(victim, now))
        return evicted

    def consume(self, key: PageKey, now: int) -> CacheEntry:
        """Mark *key*'s page as mapped by the faulting process.

        The policy decides whether the entry is freed immediately
        (eager) or lingers for a background scan (lazy).
        """
        entry = self.entries.get(key)
        if entry is None:
            raise KeyError(f"page {key} is not cached")
        if entry.consumed_at is None:
            entry.consumed_at = now
            self._consumed_count += 1
        entry.page.set_flag(PageFlags.REFERENCED)
        self.lru.reference(key)
        if self.policy.free_on_consume:
            self._free(key, now)
        return entry

    def _free(self, key: PageKey, now: int) -> CacheEntry:
        entry = self.entries.pop(key)
        self.lru.remove(key)
        if entry.consumed_at is not None:
            self._consumed_count -= 1
            self.stats.evicted_consumed += 1
            self.stats.stale_wait_ns.append(max(0, now - entry.consumed_at))
        else:
            self.stats.evicted_unused += 1
            self.stats.stale_wait_ns.append(max(0, now - entry.inserted_at))
        if self.on_free is not None:
            self.on_free(entry, now)
        return entry

    def drop(self, key: PageKey, now: int) -> CacheEntry | None:
        """Free an entry outright (e.g. failure injection); None if absent."""
        if key not in self.entries:
            return None
        return self._free(key, now)

    def scan(self, now: int, max_scan: int) -> list[CacheEntry]:
        """Run one background reclaim pass; returns freed entries."""
        return self.policy.scan(self, now, max_scan)


class EvictionPolicy(abc.ABC):
    """How cached pages die."""

    name: str
    #: Whether consuming an entry frees it immediately.
    free_on_consume: bool
    #: Whether :meth:`scan` can free anything; without it, kswapd
    #: catches up idle scan periods in one step.
    background_scan: bool

    @abc.abstractmethod
    def pick_victim(self, cache: PageCache, now: int) -> PageKey | None:
        """Choose an entry to evict under capacity pressure."""

    @abc.abstractmethod
    def scan(self, cache: PageCache, now: int, max_scan: int) -> list[CacheEntry]:
        """Background (kswapd-style) reclaim pass."""


class LazyLRUPolicy(EvictionPolicy):
    """The kernel default: everything waits for the LRU scan."""

    name = "lazy-lru"
    free_on_consume = False
    background_scan = True

    def pick_victim(self, cache: PageCache, now: int) -> PageKey | None:
        for key in cache.lru.iter_eviction_order():
            entry = cache.entries.get(key)
            if entry is not None and entry.page.is_ready(now):
                return key
        return None

    def scan(self, cache: PageCache, now: int, max_scan: int) -> list[CacheEntry]:
        freed: list[CacheEntry] = []
        for key, entry in cache.lru.scan_inactive(max_scan):
            if entry.consumed or entry.page.is_ready(now):
                freed.append(cache._free(key, now))
            else:
                # In-flight I/O: put it back, hottest position.
                cache.lru.add(key, entry)
        return freed


class EagerFifoPolicy(EvictionPolicy):
    """Leap's policy: free on consume, FIFO among speculations (§4.3)."""

    name = "eager-fifo"
    free_on_consume = True
    background_scan = False

    def pick_victim(self, cache: PageCache, now: int) -> PageKey | None:
        # Entries dict preserves insertion order; with eager freeing,
        # everything present is unconsumed, so the first ready entry is
        # the FIFO-oldest speculation.
        for key, entry in cache.entries.items():
            if entry.page.is_ready(now):
                return key
        return None

    def scan(self, cache: PageCache, now: int, max_scan: int) -> list[CacheEntry]:
        # Eager eviction leaves nothing stale for the background pass.
        return []
