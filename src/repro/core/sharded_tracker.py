"""Per-(process, core) sharded trend detection (§4.1).

Leap isolates trend detection per process *per core*: the kernel keeps
the ``AccessHistory`` and prefetch state in per-CPU storage so the hot
fault path never takes a cross-core lock.  :class:`ShardedLeapTracker`
models exactly that: one :class:`~repro.core.prefetcher.LeapPrefetcher`
shard per (pid, core), routed by the core the process currently runs
on.

When the scheduler migrates a process, its detection state follows via
a **split-merge** path: the old core's shard stays where it is (the
split — another thread of the process may still be running there, and
the shard is warm if the process migrates back), while its history
window and learned prefetch aggressiveness are merged into the
destination core's shard, so migration does not restart trend detection
from scratch.

With static core assignment (no migrations) every process has exactly
one shard, so the tracker is plain per-process isolation — one
process's access pattern never pollutes another's trend detection, the
property the single-process figures and Figure 13 rely on.
"""

from __future__ import annotations

from repro.core.access_history import DEFAULT_HISTORY_SIZE
from repro.core.prefetch_window import DEFAULT_MAX_WINDOW
from repro.core.prefetcher import LeapPrefetcher
from repro.core.trend import DEFAULT_NSPLIT
from repro.mem.page import PageKey
from repro.prefetchers.base import Prefetcher

__all__ = ["ShardedLeapTracker"]


class ShardedLeapTracker(Prefetcher):
    """One LeapPrefetcher shard per (process, core)."""

    name = "leap"

    def __init__(
        self,
        history_size: int = DEFAULT_HISTORY_SIZE,
        n_split: int = DEFAULT_NSPLIT,
        max_window: int = DEFAULT_MAX_WINDOW,
    ) -> None:
        self.history_size = history_size
        self.n_split = n_split
        self.max_window = max_window
        self._shards: dict[tuple[int, int], LeapPrefetcher] = {}
        self._active_core: dict[int, int] = {}
        self.migrations = 0

    # -- shard management ---------------------------------------------------
    def shard_for(self, pid: int, core: int) -> LeapPrefetcher:
        shard = self._shards.get((pid, core))
        if shard is None:
            shard = LeapPrefetcher(
                pid,
                history_size=self.history_size,
                n_split=self.n_split,
                max_window=self.max_window,
            )
            self._shards[(pid, core)] = shard
        return shard

    def active_shard(self, pid: int) -> LeapPrefetcher:
        """The shard on the core *pid* currently runs on."""
        return self.shard_for(pid, self._active_core.get(pid, 0))

    def active_core(self, pid: int) -> int:
        return self._active_core.get(pid, 0)

    @property
    def tracked_pids(self) -> list[int]:
        return sorted({pid for pid, _ in self._shards})

    @property
    def shard_keys(self) -> list[tuple[int, int]]:
        return sorted(self._shards)

    # -- placement / migration ---------------------------------------------
    def on_process_placed(self, pid: int, core: int) -> None:
        self._active_core[pid] = core

    def on_process_migrated(self, pid: int, old_core: int, new_core: int) -> None:
        """Split-merge: carry detection state to the destination core.

        The source shard is left intact (split); its history window,
        last trend, and learned window size are merged into the
        destination shard so the first faults after migration still see
        an established trend.
        """
        if old_core == new_core:
            return
        self._active_core[pid] = new_core
        source = self._shards.get((pid, old_core))
        if source is None:
            return
        self.migrations += 1
        destination = self.shard_for(pid, new_core)
        destination.absorb(source)

    # -- Prefetcher interface ----------------------------------------------
    def on_fault(self, key: PageKey, now: int, cache_hit: bool) -> None:
        self.active_shard(key[0]).on_fault(key, now, cache_hit)

    def candidates(self, key: PageKey, now: int) -> list[PageKey]:
        return self.active_shard(key[0]).candidates(key, now)

    def on_prefetch_hit(self, key: PageKey, now: int) -> None:
        self.active_shard(key[0]).on_prefetch_hit(key, now)

    def reset(self) -> None:
        for shard in self._shards.values():
            shard.reset()
