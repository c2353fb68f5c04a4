"""Data path interface.

A data path turns "fetch/flush this page" into latency, combining its
software stage costs (:mod:`repro.datapath.stages`) with the backend's
queue-aware device timing.  Demand reads *block* the faulting process;
prefetch reads and write-backs are asynchronous — the caller gets a
completion timestamp and the process keeps running.  The staged
:class:`~repro.datapath.pipeline.FaultPipeline` registers both demand
and prefetch reads (with these completion timestamps as arrival
deadlines) on its :class:`~repro.rdma.completion.CompletionQueue`, so
duplicate keys coalesce instead of re-traversing this path.

Each path also prices a *page-cache hit*: the paper observes that the
default data path's constant overheads (locking, LRU bookkeeping,
readahead state) cap its best-case latency around 1–1.5 µs (Figure 2),
while Leap's slimmer hit path stays sub-microsecond — the gap that
becomes the 104× median improvement once the prefetcher turns misses
into hits.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.datapath.backends import IOBackend
from repro.datapath.stages import StageModel
from repro.rdma.qp import Submission
from repro.sim.rng import DEFAULT_POOL_SIZE, SamplePool, SimRandom

__all__ = ["DataPath", "ReadTiming"]


@dataclass(slots=True)
class ReadTiming:
    """Timing decomposition of one demand read (a value; not frozen,
    since one is built per read)."""

    software_ns: int
    queueing_delay_ns: int
    device_ns: int

    @property
    def total_ns(self) -> int:
        return self.software_ns + self.queueing_delay_ns + self.device_ns


class DataPath(abc.ABC):
    """Common mechanics for the legacy and lean paths."""

    name: str
    #: Median cost of serving a fault from the page cache.
    hit_median_ns: int
    hit_sigma: float = 0.1
    #: Whether a prefetch window can be submitted as one software-stage
    #: sweep.  The legacy block layer prepares a bio per page no matter
    #: what, so only the lean path gets true batching.
    supports_batching = False

    def __init__(self, backend: IOBackend, stages: StageModel, rng: SimRandom) -> None:
        self.backend = backend
        self.stages = stages
        self._rng = rng
        self.demand_reads = 0
        self.async_reads = 0
        self.async_writes = 0
        self._hit_pool: SamplePool | None = None

    def cache_hit_ns(self) -> int:
        """Latency of a fault served by a ready page-cache entry."""
        pool = self._hit_pool
        if pool is None:
            pool = self._hit_pool = SamplePool(
                self._rng.lognormal_pool(
                    self.hit_median_ns, self.hit_sigma, DEFAULT_POOL_SIZE
                )
            )
        return pool.draw()

    def _submit_read(self, key: object, at: int, core: int) -> Submission:
        backend = self.backend
        # Resolve the page's location to a serving node before dispatch
        # so the submission is charged to that server's queue pair (a
        # flat backend resolves to None and keeps its single fabric).
        return backend.submit_read(key, at, core, server=backend.resolve_server(key))

    def demand_read(self, key: object, now: int, core: int = 0) -> ReadTiming:
        """Blocking read of one page for a faulting process."""
        self.demand_reads += 1
        software = self.stages.sample_read().total_ns
        submission = self._submit_read(key, now + software, core)
        started = submission.started
        return ReadTiming(
            software, started - submission.submitted, submission.completed - started
        )

    def async_read(self, key: object, now: int, core: int = 0) -> int:
        """Non-blocking (prefetch) read; returns the completion time."""
        self.async_reads += 1
        software = self.stages.sample_read().total_ns
        return self._submit_read(key, now + software, core).completed

    def async_read_batch(
        self, keys: list[object], now: int, core: int = 0
    ) -> list[int]:
        """Submit a whole prefetch window in one sweep.

        On a path with :attr:`supports_batching`, the software stages
        are paid **once** for the batch (Leap's lean path builds one
        scatter list for the window and hands it to the NIC in a single
        ``leap_remote_io_request``), so a window of 8 costs one stage
        traversal instead of 8; device/fabric occupancy still
        serializes per page on the dispatch queue.  A path without it
        (the legacy block layer prepares a bio per page) falls back to
        one full traversal per page.  Returns each key's completion
        time, in input order.
        """
        if not keys:
            return []
        if not self.supports_batching:
            return [self.async_read(key, now, core) for key in keys]
        self.async_reads += len(keys)
        software = self.stages.sample_read().total_ns
        submit_at = now + software
        backend = self.backend
        return [
            backend.submit_read(
                key, submit_at, core, server=backend.resolve_server(key)
            ).completed
            for key in keys
        ]

    def async_write(self, key: object, now: int, core: int = 0) -> int:
        """Non-blocking page write-out; returns the completion time."""
        self.async_writes += 1
        sample = self.stages.sample_write()
        backend = self.backend
        submission = backend.submit_write(
            key, now + sample.total_ns, core, server=backend.resolve_server(key)
        )
        return submission.completed
