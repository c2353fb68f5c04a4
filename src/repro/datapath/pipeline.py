"""The staged fault pipeline: one asynchronous fault engine.

Leap's core datapath argument (§4.2, §4.4) is that the fault path
should be a *lean, staged, asynchronous* pipeline rather than a
blocking monolith: demand reads and prefetches share one in-flight I/O
path, a demand fault on a page whose prefetch is already on the wire
waits on that completion instead of re-issuing the read, and per-core
dispatch queues bound how much speculation can pile onto a QP.

:class:`FaultPipeline` is that decomposition.  Every page access runs
through five explicit stages:

1. **classify** — resident / first-touch / remote fault, from the page
   table and the materialized set;
2. **cache lookup** — consult the swap cache; a hit on a ready entry
   short-circuits, a hit on an in-flight entry *coalesces* onto its
   :class:`~repro.rdma.completion.CompletionQueue` entry (no second
   read is ever issued — the fault inherits the arrival deadline);
3. **issue** — a full miss dispatches the blocking demand read, then
   the prefetcher's window, both registered on the completion queue;
   when a per-core QP depth limit is configured, a saturated queue
   backpressures the prefetch round instead of queueing without bound;
4. **complete** — retire every in-flight entry whose arrival deadline
   has passed (run per fault and once per access batch) and deliver
   prefetch-hit feedback — the single routing point for
   ``on_prefetch_hit``, so ready hits and coalesced in-flight hits feed
   the prefetcher identically;
5. **map** — consume the cache entry (its cgroup charge transfers to
   the resident mapping) and install the page-table entry.

Every run path — :func:`repro.sim.simulate.simulate`,
``Machine.run_concurrent``, and ``Machine.run_cluster`` — faults
through this one pipeline:
:meth:`repro.mem.vmm.VirtualMemoryManager.access` is a thin adapter
over :meth:`FaultPipeline.access`, and the batched entry points
(``VMM.access_batch``, ``ProcessDriver.step_burst``) hoist the
background-reclaim check and the completion drain to the batch
boundary, keeping the per-access hot path to an integer compare.

The pipeline is a pure refactoring of the simulated semantics: it
draws the same random samples in the same order as the old monolithic
fault path, so a fixed seed reproduces bit-identical results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.datapath.stages import CACHE_LOOKUP_NS
from repro.mem.page import Page, PageFlags, PageKey
from repro.obs.names import (
    CQ_BACKPRESSURE,
    FAULT_ALLOC_WAIT,
    FAULT_CACHE_HIT,
    FAULT_CACHE_LOOKUP,
    FAULT_COMPLETE_WAIT,
    FAULT_MAP,
    FAULT_MINOR,
    FAULT_READ_WAIT,
    core_track,
)
from repro.rdma.completion import CompletionQueue, InflightKind

__all__ = [
    "AccessKind",
    "AccessOutcome",
    "FAULT_KINDS",
    "MAP_COST_NS",
    "PREFETCH_HIT_KINDS",
    "FaultPipeline",
]

#: Page-table update when a cached page is mapped in.
MAP_COST_NS = 100


class _PrefetchPressure(Exception):
    """Internal signal: no cache room left for this prefetch round."""


class AccessKind(enum.Enum):
    """How an access was served."""

    RESIDENT = "resident"
    MINOR_FAULT = "minor_fault"
    CACHE_HIT = "cache_hit"
    CACHE_HIT_INFLIGHT = "cache_hit_inflight"
    MAJOR_FAULT = "major_fault"


#: Kinds that represent remote/backing-store page access events — the
#: population the paper's latency CDFs are drawn over.
FAULT_KINDS = (
    AccessKind.CACHE_HIT,
    AccessKind.CACHE_HIT_INFLIGHT,
    AccessKind.MAJOR_FAULT,
)

#: Kinds served by a prefetched cache entry — the numerator of every
#: "hit rate" in scenario payloads and control-plane telemetry (one
#: definition, so the governor optimizes exactly what the A/B judges).
PREFETCH_HIT_KINDS = (AccessKind.CACHE_HIT, AccessKind.CACHE_HIT_INFLIGHT)


@dataclass(slots=True)
class AccessOutcome:
    """Result of one page access.

    Built once per fault, so it is not frozen (a frozen dataclass pays
    ``object.__setattr__`` per field); callers treat it as a value.
    """

    kind: AccessKind
    latency_ns: int
    key: PageKey
    served_by_prefetch: bool = False


class FaultPipeline:
    """classify → cache-lookup → issue → complete → map, over one VMM.

    The pipeline owns the fault *flow* (and the completion queue); the
    VMM keeps the memory-management mechanics it calls back into —
    mapping, eviction, cgroup charging — so policy about *where pages
    live* stays in :mod:`repro.mem` and policy about *how faults move*
    lives here.
    """

    def __init__(self, vmm, completion_queue: CompletionQueue | None = None) -> None:
        self.vmm = vmm
        self.cq = completion_queue if completion_queue is not None else CompletionQueue()
        #: Next simulated instant the background reclaimer is due; the
        #: per-access scan check is this one integer compare, with the
        #: real :meth:`~repro.mem.reclaim.KswapdReclaimer.maybe_scan`
        #: call hoisted to the due boundary (and the batch boundary).
        self.next_scan_due = vmm.reclaimer.next_scan_due_ns

    # -- shared plumbing ---------------------------------------------------
    def process(self, pid: int):
        """Per-process memory state (for the burst fast path)."""
        return self.vmm._processes[pid]

    def run_scans(self, now: int) -> None:
        """Run background reclaim if due, and re-arm the due check."""
        reclaimer = self.vmm.reclaimer
        reclaimer.maybe_scan(now)
        self.next_scan_due = reclaimer.next_scan_due_ns

    def begin_batch(self, now: int) -> None:
        """Batch boundary: drain completions, run reclaim if due."""
        self.cq.drain(now)
        if now >= self.next_scan_due:
            self.run_scans(now)

    # -- the staged fault path ---------------------------------------------
    def access(self, pid: int, vpn: int, now: int, is_write: bool = False) -> AccessOutcome:
        """Serve one page access at simulated time *now*."""
        vmm = self.vmm
        process = vmm._processes[pid]
        if not 0 <= vpn < process.address_space_pages:
            raise ValueError(
                f"pid {pid}: vpn {vpn} outside address space "
                f"of {process.address_space_pages} pages"
            )
        if now >= self.next_scan_due:
            self.run_scans(now)

        # Stage 1: classify.
        if process.page_table.is_resident(vpn):
            process.resident_lru.reference(vpn)
            if is_write:
                process.page_table.mark_dirty(vpn)
            return AccessOutcome(AccessKind.RESIDENT, 0, (pid, vpn))

        key = (pid, vpn)
        if vpn not in process.materialized:
            # First touch: zero-fill minor fault, no backing store.
            latency = vmm.reclaimer.allocation_wait_ns(now)
            vmm._map_page(process, vpn, now, dirty=True)
            process.materialized.add(vpn)
            vmm.metrics.record_minor_fault()
            if vmm.tracer.enabled:
                vmm.tracer.span(FAULT_MINOR, core_track(process.core), now, latency)
            return vmm._record(AccessOutcome(AccessKind.MINOR_FAULT, latency, key))

        # Stage 2: cache lookup.
        vmm.metrics.record_fault()
        entry = vmm.cache.lookup(key, now)
        vmm.prefetcher.on_fault(key, now, cache_hit=entry is not None)
        if entry is not None:
            return self._serve_cached(process, entry, key, vpn, now, is_write)
        return self._serve_miss(process, key, vpn, now, is_write)

    def _serve_cached(
        self, process, entry, key: PageKey, vpn: int, now: int, is_write: bool
    ) -> AccessOutcome:
        """A cache hit: ready entry, or coalesce onto an in-flight one."""
        vmm = self.vmm
        page = entry.page
        was_prefetched = page.prefetched
        if page.is_ready(now):
            kind = AccessKind.CACHE_HIT
            latency = vmm.data_path.cache_hit_ns()
            vmm.cache.stats.ready_hits += 1
            if vmm.tracer.enabled:
                vmm.tracer.span(
                    FAULT_CACHE_HIT, core_track(process.core), now, latency
                )
        else:
            # Coalesce: the fault attaches to the in-flight read and
            # blocks for the remainder of its arrival deadline — it is
            # never re-issued (stage 3 is skipped entirely).
            kind = AccessKind.CACHE_HIT_INFLIGHT
            complete_wait = page.arrival_time - now
            latency = CACHE_LOOKUP_NS + complete_wait + MAP_COST_NS
            vmm.cache.stats.inflight_hits += 1
            self.cq.attach(key, now)
            vmm.metrics.record_coalesced()
            if vmm.tracer.enabled:
                track = core_track(process.core)
                vmm.tracer.span(FAULT_CACHE_LOOKUP, track, now, CACHE_LOOKUP_NS)
                vmm.tracer.span(
                    FAULT_COMPLETE_WAIT, track, now + CACHE_LOOKUP_NS, complete_wait
                )
                vmm.tracer.span(
                    FAULT_MAP, track, now + CACHE_LOOKUP_NS + complete_wait, MAP_COST_NS
                )
        # Stage 5: map.  The entry's cache charge transfers to the
        # resident mapping (_map_page re-charges); consumed entries
        # never uncharge in the free callback, so this is the single
        # hand-over point.
        vmm.cache.consume(key, now)
        process.cgroup.uncharge(1)
        process.cache_charged = max(0, process.cache_charged - 1)
        vmm._map_page(process, vpn, now, dirty=is_write)
        if vmm.data_path.backend.release(key):
            process.slot_releases += 1
        # Stage 4: complete — hit feedback and due retirements.
        if was_prefetched:
            self.deliver_hit(key, now)
        self.cq.drain(now)
        return vmm._record(
            AccessOutcome(kind, latency, key, served_by_prefetch=was_prefetched)
        )

    def _serve_miss(
        self, process, key: PageKey, vpn: int, now: int, is_write: bool
    ) -> AccessOutcome:
        """A full miss: stage 3 (issue) then 5 (map) then 4 (complete)."""
        vmm = self.vmm
        vmm.metrics.record_miss()
        vmm.cache.stats.misses += 1
        # Retire due completions before issuing, so the in-flight depth
        # noted below counts reads genuinely on the wire — not entries
        # whose drain just hadn't run yet, which would make the peak
        # depend on how the caller batched its bursts.
        self.cq.drain(now)
        allocation_wait = vmm.reclaimer.allocation_wait_ns(now)
        timing = vmm.data_path.demand_read(key, now, process.core)
        latency = CACHE_LOOKUP_NS + allocation_wait + timing.total_ns
        if vmm.tracer.enabled:
            # The major-fault decomposition: these three spans sum to
            # exactly `latency`, so `repro obs top` attributes every
            # recorded fault nanosecond to a named stage.
            track = core_track(process.core)
            vmm.tracer.span(FAULT_CACHE_LOOKUP, track, now, CACHE_LOOKUP_NS)
            vmm.tracer.span(
                FAULT_ALLOC_WAIT, track, now + CACHE_LOOKUP_NS, allocation_wait
            )
            vmm.tracer.span(
                FAULT_READ_WAIT,
                track,
                now + CACHE_LOOKUP_NS + allocation_wait,
                timing.total_ns,
            )
        self.cq.issue(key, InflightKind.DEMAND, process.core, now, now + timing.total_ns)
        vmm.metrics.note_inflight_depth(len(self.cq))
        vmm._map_page(process, vpn, now, dirty=is_write)
        self._issue_prefetches(process, key, now)
        # Free the backing slot only after the prefetcher used its offset.
        if vmm.data_path.backend.release(key):
            process.slot_releases += 1
        self.cq.drain(now)
        return vmm._record(AccessOutcome(AccessKind.MAJOR_FAULT, latency, key))

    # -- stage 4: complete ---------------------------------------------------
    def deliver_hit(self, key: PageKey, now: int) -> None:
        """Feedback for a consumed prefetched page — the one routing
        point, so ready hits and coalesced in-flight hits are
        indistinguishable to the prefetcher and the metrics."""
        vmm = self.vmm
        vmm.prefetcher.on_prefetch_hit(key, now)
        vmm.metrics.record_hit(key, now)

    # -- stage 3: issue ------------------------------------------------------
    def _admit_prefetch(self, candidate: PageKey, accepted: list[PageKey], now: int):
        """Validate one prefetch candidate and charge its cache page.

        Returns the owning process when the candidate should be read,
        None to skip it, and raises :class:`_PrefetchPressure` (caught
        by the issue loop) under genuine memory pressure.
        """
        vmm = self.vmm
        cpid, cvpn = candidate
        target = vmm._processes.get(cpid)
        if target is None:
            return None
        if not 0 <= cvpn < target.address_space_pages:
            return None
        if cvpn not in target.materialized:
            return None  # no backing copy exists yet
        if target.page_table.is_resident(cvpn):
            return None
        if candidate in vmm.cache or candidate in accepted:
            return None
        if not vmm._reserve_cache_page(target, now):
            raise _PrefetchPressure  # stop prefetching this round
        return target

    def _insert_prefetched(self, candidate, target, now: int, arrival: int, core: int) -> None:
        vmm = self.vmm
        page = Page(key=candidate, arrival_time=arrival, issued_time=now)
        page.set_flag(PageFlags.PREFETCHED)
        vmm.cache.insert(page, now, prefetched=True)
        target.cache_fifo.append(candidate)
        vmm.metrics.record_issue(candidate, now, arrival)
        self.cq.issue(candidate, InflightKind.PREFETCH, core, now, arrival)
        vmm.metrics.note_inflight_depth(len(self.cq))

    def _issue_prefetches(self, process, key: PageKey, now: int) -> None:
        vmm = self.vmm
        batching = vmm.batch_prefetch and vmm.data_path.supports_batching
        depth_limit = self.cq.depth_limit
        core = process.core
        accepted: list[PageKey] = []
        targets: list = []
        for candidate in vmm.prefetcher.candidates(key, now):
            if depth_limit is not None:
                self.cq.drain(now)
                if self.cq.depth(core) + len(accepted) >= depth_limit:
                    # QP saturated: backpressure the rest of the round.
                    self.cq.record_rejection()
                    vmm.metrics.record_backpressure()
                    if vmm.tracer.enabled:
                        vmm.tracer.instant(CQ_BACKPRESSURE, core_track(core), now)
                    break
            try:
                target = self._admit_prefetch(candidate, accepted, now)
            except _PrefetchPressure:
                break
            if target is None:
                continue
            if batching:
                # Collect the window; one submission sweep at the end.
                accepted.append(candidate)
                targets.append(target)
                continue
            arrival = vmm.data_path.async_read(candidate, now, core)
            self._insert_prefetched(candidate, target, now, arrival, core)
        if not accepted:
            return
        arrivals = vmm.data_path.async_read_batch(accepted, now, core)
        for candidate, target, arrival in zip(accepted, targets, arrivals):
            self._insert_prefetched(candidate, target, now, arrival, core)
