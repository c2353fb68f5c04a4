"""Background reclaim (``kswapd``) and the allocation-wait model.

Two effects from the paper live here:

* **Lazy reclaim latency** (Figure 4): under the default policy a
  consumed cache page is only freed when the periodic scan reaches it,
  so entries sit stale for a long time.  :class:`KswapdReclaimer`
  wakes on a period, scans a bounded batch of the inactive list, and
  frees what it finds; the wait-time samples land in
  :class:`~repro.mem.page_cache.CacheStats`.
* **Allocation wait** (§4.3): the more pages sit on the LRU lists, the
  longer a faulting thread waits for a free page.  The paper measures
  eager eviction cutting page-allocation time by ~750 ns (36%); we
  model allocation wait as a base cost plus a per-stale-page scan
  surcharge saturating at that measured gap.
"""

from __future__ import annotations

from repro.mem.page_cache import CacheEntry, PageCache
from repro.sim.units import ms, ns

__all__ = ["KswapdReclaimer", "AllocationWaitModel"]


class AllocationWaitModel:
    """Page-allocation latency as a function of reclaim-list clutter."""

    def __init__(
        self,
        base_ns: int = ns(1333),
        per_stale_ns: float = 7.5,
        max_extra_ns: int = ns(750),
    ) -> None:
        self.base_ns = base_ns
        self.per_stale_ns = per_stale_ns
        self.max_extra_ns = max_extra_ns

    def wait_ns(self, stale_pages: int) -> int:
        """Allocation wait given the number of stale LRU entries."""
        extra = min(self.max_extra_ns, int(stale_pages * self.per_stale_ns))
        return self.base_ns + extra


class KswapdReclaimer:
    """Periodic background scanner over one page cache."""

    def __init__(
        self,
        cache: PageCache,
        scan_period_ns: int = ms(100),
        scan_batch: int = 32,
        alloc_model: AllocationWaitModel | None = None,
    ) -> None:
        if scan_period_ns <= 0:
            raise ValueError(f"scan period must be positive, got {scan_period_ns}")
        if scan_batch <= 0:
            raise ValueError(f"scan batch must be positive, got {scan_batch}")
        self.cache = cache
        self.scan_period_ns = scan_period_ns
        self.scan_batch = scan_batch
        self.alloc_model = alloc_model or AllocationWaitModel()
        self._last_scan = 0
        self.scans = 0
        self.freed = 0

    @property
    def next_scan_due_ns(self) -> int:
        """First simulated instant at which :meth:`maybe_scan` would
        actually scan — the fault pipeline hoists the periodic call out
        of the per-access path by comparing against this boundary."""
        return self._last_scan + self.scan_period_ns

    def maybe_scan(self, now: int) -> list[CacheEntry]:
        """Run one scan per scan period elapsed since the last one.

        Once no scan can free anything — the policy never frees in the
        background, or the cache is empty — the remaining periods are
        counted in one step instead of scanned one at a time.
        """
        freed: list[CacheEntry] = []
        period = self.scan_period_ns
        while now - self._last_scan >= period:
            if not (self.cache.entries and self.cache.policy.background_scan):
                idle = (now - self._last_scan) // period
                self._last_scan += idle * period
                self.scans += idle
                break
            self._last_scan += period
            batch = self.cache.scan(self._last_scan, self.scan_batch)
            freed.extend(batch)
            self.scans += 1
            self.freed += len(batch)
        return freed

    def allocation_wait_ns(self, now: int) -> int:
        """What a faulting thread pays to get a free page right now."""
        return self.alloc_model.wait_ns(self.cache.stale_count(now))
