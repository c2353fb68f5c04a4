"""Leap's core: trend detection, prefetching, eager eviction (§3–4)."""

from repro.core.access_history import DEFAULT_HISTORY_SIZE, AccessHistory
from repro.core.majority import majority_candidate, majority_threshold, verified_majority
from repro.core.prefetch_window import DEFAULT_MAX_WINDOW, PrefetchWindow
from repro.core.prefetcher import LeapPrefetcher
from repro.core.sharded_tracker import ShardedLeapTracker
from repro.core.trend import DEFAULT_NSPLIT, find_trend
from repro.mem.page_cache import EagerFifoPolicy

__all__ = [
    "AccessHistory",
    "DEFAULT_HISTORY_SIZE",
    "DEFAULT_MAX_WINDOW",
    "DEFAULT_NSPLIT",
    "EagerFifoPolicy",
    "LeapPrefetcher",
    "PrefetchWindow",
    "ShardedLeapTracker",
    "find_trend",
    "majority_candidate",
    "majority_threshold",
    "verified_majority",
]
