"""The vectorized burst kernel: array-at-a-time resident runs.

Two entry points, both bit-exact against the object engine:

* :func:`step_burst_columnar` — the vectorized implementation of
  :meth:`~repro.sim.process.ProcessDriver.step_burst` for drivers fed
  by a :class:`~repro.kernel.columnar.ColumnarCursor`.  It checks the
  head access with one scalar mask read and, when that is resident,
  classifies a lookahead of upcoming accesses with one gather, bulk
  applies whole resident runs (collapsed LRU references, deduplicated
  dirty bits, one clock jump), and drops to the staged
  :class:`~repro.datapath.pipeline.FaultPipeline` — the oracle — for
  every access that is not provably resident.

* :class:`ConcurrentResidentWindow` — the cross-driver analogue for the
  concurrent scheduler, where think-time lockstep makes individual
  bursts only a couple of accesses long.  Each driver's *own* resident
  prefix touches no shared simulator state (no page cache, completion
  queue, prefetcher, or metrics — only its own LRU and dirty bits), so
  the prefixes of all drivers can be bulk-executed in one shot between
  scalar fault pops, bounded only by the kswapd scan horizon and any
  pending timeline/epoch boundary.

Why this is exact (the full argument lives in ``docs/kernel.md``):

* residency only changes on a process's own fault/evict/resize path,
  so a mask gather taken before a resident run cannot go stale inside
  the run, and a stale *non-resident* reading is harmless — the access
  just takes the pipeline path, whose classify stage re-checks;
* a run of LRU references with nothing interleaved collapses to one
  reference per distinct page in last-use order
  (:meth:`~repro.mem.lru.ActiveInactiveLRU.reference_bulk`);
* kswapd scans touch only the page cache, never resident LRUs or page
  tables, so firing them at their exact trigger times before the bulk
  apply commutes with it; runs never cross an unfired scan boundary.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.datapath.pipeline import FAULT_KINDS, AccessKind
from repro.obs.names import KERNEL_RESIDENT_RUN, KERNEL_WINDOW, core_track

__all__ = [
    "leading_resident",
    "step_burst_columnar",
    "ConcurrentResidentWindow",
]

#: Adaptive per-driver classification lookahead bounds: shrink toward
#: the floor in fault-dense stretches (don't gather pages we won't
#: use), grow toward the ceiling through long resident runs.
MIN_LOOKAHEAD = 32
MAX_LOOKAHEAD = 8192
#: Resident runs predicted to end within this many accesses are walked
#: one access at a time (numpy's per-run fixed cost exceeds several
#: scalar accesses); a walk that reaches this length without ending
#: hands the rest of its run to the array path.
SHORT_RUN = 4
#: A cross-driver window only pays for its gathers above this many
#: bulk-executable accesses; smaller opportunities fall through to the
#: ordinary scalar pops.
WINDOW_MIN_ACCESSES = 32
#: Failed window attempts back off exponentially up to this many pops.
WINDOW_MAX_COOLDOWN = 256


def leading_resident(mask: np.ndarray, vpns: np.ndarray) -> int:
    """Length of the resident prefix of *vpns* under residency *mask*.

    Out-of-range vpns (including negatives, which numpy would otherwise
    silently wrap) classify as non-resident, exactly like the object
    engine's bounds check — they stop the prefix and take the pipeline
    path, which raises the same error the object engine would.
    """
    if int(vpns.min()) >= 0 and int(vpns.max()) < len(mask):
        resident = mask[vpns]
    else:
        in_range = (vpns >= 0) & (vpns < len(mask))
        resident = np.zeros(len(vpns), dtype=np.uint8)
        idx = np.nonzero(in_range)[0]
        resident[idx] = mask[vpns[idx]]
    if not resident[0]:
        return 0
    first_zero = int(resident.argmin())
    if resident[first_zero]:
        return len(resident)
    return first_zero


def _apply_resident_run(page_table, resident_lru, vpns, writes) -> None:
    """Bulk bookkeeping for a run of resident accesses.

    Equivalent to per-access ``reference()`` + ``mark_dirty()``: LRU
    references collapse to one per distinct page ordered by last use
    (MRU order after the run depends only on last uses), and dirty
    marking is an idempotent set union.
    """
    if len(vpns) == 1:
        vpn = int(vpns[0])
        resident_lru.reference(vpn)
        if writes[0]:
            page_table.mark_dirty(vpn)
        return
    # Walking the run backwards, a page's first occurrence is its last
    # use; dict.fromkeys keeps first insertions in order, so its keys
    # run in descending last-use order and reversing them yields the
    # ascending last-use order without a sort.
    by_last_use_desc = dict.fromkeys(reversed(vpns.tolist()))
    resident_lru.reference_bulk(list(reversed(by_last_use_desc)))
    if writes.any():
        page_table.mark_dirty_bulk(set(vpns[writes].tolist()))


def _fire_scans_in_run(pipeline, cum, n: int) -> None:
    """Fire kswapd at the exact access times the object loop would.

    ``cum[i]`` is the simulated time of access *i*; the object engine
    checks ``now >= next_scan_due`` before each resident access, so the
    trigger time is the first access time at or past the due point.
    Scans touch only the page cache, so their position relative to the
    run's LRU references is immaterial — only their times matter.
    """
    while True:
        due = pipeline.next_scan_due
        idx = int(np.searchsorted(cum[:n], due, side="left"))
        if idx >= n:
            return
        pipeline.run_scans(int(cum[idx]))


def step_burst_columnar(
    driver,
    vmm,
    index: int = 0,
    stop_time: int | None = None,
    stop_index: int = 0,
    events_at: int | None = None,
    budget: int | None = None,
) -> int:
    """Vectorized :meth:`ProcessDriver.step_burst` over a columnar cursor.

    Stop semantics are identical to the object loop: the first access
    of a burst is unconditional, and before every later access the
    driver checks *events_at*, heap order against ``(stop_time,
    stop_index)``, and *budget* — here evaluated for whole resident
    runs at once with two ``searchsorted`` calls over the cumulative
    think-time clock instead of per access.
    """
    if driver.done:
        return 0
    pipeline = vmm.pipeline
    clock = driver.clock
    pipeline.begin_batch(clock.now)
    state = driver._kernel_state
    if state is None:
        process = pipeline.process(driver.pid)
        address_space = process.address_space_pages
        mask = process.page_table.ensure_resident_mask(address_space)
        state = driver._kernel_state = (
            process.page_table,
            process.resident_lru,
            mask,
        )
    page_table, resident_lru, mask = state
    mask_len = len(mask)
    cursor = driver.cursor
    kind_counts = driver.kind_counts
    fault_latencies = driver.fault_latencies
    pipeline_access = pipeline.access
    pid = driver.pid
    lookahead = driver._lookahead
    tracer = vmm.tracer
    executed = 0
    resident_total = 0
    long_run = False
    while True:
        if executed:
            t = clock.now
            if events_at is not None and t >= events_at:
                break
            if stop_time is not None and (
                t > stop_time or (t == stop_time and index >= stop_index)
            ):
                break
            if budget is not None and executed >= budget:
                break
        if not cursor.ensure():
            driver.finished_ns = clock.now
            break
        vpns, writes, thinks = cursor.tail()
        head = int(vpns[0])
        if not (0 <= head < mask_len and mask[head]):
            # Not provably resident: one scalar access through the
            # oracle pipeline (which re-classifies, so a conservative
            # miss here can never change the outcome, and an
            # out-of-range vpn raises the object engine's error).
            now = clock.advance(int(thinks[0]))
            outcome = pipeline_access(pid, head, now, bool(writes[0]))
            latency = outcome.latency_ns
            clock.advance(latency)
            kind_counts[outcome.kind] += 1
            driver.total_fault_latency_ns += latency
            if outcome.kind in FAULT_KINDS:
                fault_latencies.append(latency)
            driver.accesses += 1
            executed += 1
            cursor.advance(1)
            long_run = False
            if lookahead > MIN_LOOKAHEAD:
                lookahead >>= 1
            continue
        if stop_time is not None and not long_run:
            think = int(thinks[0])
            if stop_time - clock.now < SHORT_RUN * think:
                # Predicted short: the next heap entry is fewer than
                # SHORT_RUN think times away, so numpy's fixed cost
                # would dwarf the run.  Walk it with the object loop's
                # per-access semantics, at most SHORT_RUN accesses; a
                # run still going after that finishes on the array path.
                start = clock.now
                limit = SHORT_RUN if SHORT_RUN < len(vpns) else len(vpns)
                vpn = head
                walked = 0
                while True:
                    now = clock.advance(think)
                    if now >= pipeline.next_scan_due:
                        pipeline.run_scans(now)
                    resident_lru.reference(vpn)
                    if writes.item(walked):
                        page_table.mark_dirty(vpn)
                    walked += 1
                    if walked == limit:
                        break
                    if events_at is not None and now >= events_at:
                        break
                    if now > stop_time or (now == stop_time and index >= stop_index):
                        break
                    if budget is not None and executed + walked >= budget:
                        break
                    vpn = vpns.item(walked)
                    if not (0 <= vpn < mask_len and mask[vpn]):
                        break
                    think = thinks.item(walked)
                if tracer.enabled:
                    tracer.span(
                        KERNEL_RESIDENT_RUN,
                        core_track(pipeline.process(pid).core),
                        start,
                        clock.now - start,
                    )
                resident_total += walked
                driver.accesses += walked
                executed += walked
                cursor.advance(walked)
                long_run = walked == SHORT_RUN
                continue
        long_run = False
        look = lookahead if lookahead < len(vpns) else len(vpns)
        run = leading_resident(mask, vpns[:look])
        cum = clock.now + np.cumsum(thinks[:run])
        n = run
        if events_at is not None:
            n = min(n, int(np.searchsorted(cum[: run - 1], events_at, side="left")) + 1)
        if stop_time is not None:
            side = "left" if index >= stop_index else "right"
            n = min(n, int(np.searchsorted(cum[: run - 1], stop_time, side=side)) + 1)
        if budget is not None:
            n = min(n, budget - executed)
        if n < 1:
            # The first access of a burst is unconditional in the
            # object loop (stop conditions are only checked once
            # something has executed), so a zero budget still runs one.
            n = 1
        end = int(cum[n - 1])
        if pipeline.next_scan_due <= end:
            _fire_scans_in_run(pipeline, cum, n)
        _apply_resident_run(page_table, resident_lru, vpns[:n], writes[:n])
        if tracer.enabled:
            tracer.span(
                KERNEL_RESIDENT_RUN,
                core_track(pipeline.process(pid).core),
                clock.now,
                end - clock.now,
            )
        clock.advance_to(end)
        resident_total += n
        driver.accesses += n
        executed += n
        cursor.advance(n)
        if run == look and lookahead < MAX_LOOKAHEAD:
            lookahead <<= 1
    driver._lookahead = lookahead
    if resident_total:
        kind_counts[AccessKind.RESIDENT] += resident_total
    return executed


class ConcurrentResidentWindow:
    """Bulk-execute every driver's resident prefix between fault pops.

    Built by :meth:`ConcurrentScheduler.run` when the vectorized engine
    can prove the preconditions: every driver is columnar, every driver
    is alone on its core (so no core ever backlogs and migration can
    never trigger), and there is no global access budget.  Under those
    conditions a driver's resident prefix — up to but excluding its own
    next fault — commutes with everything the other drivers do:

    * it reads and writes only the driver's own LRU and dirty bits;
    * other drivers' faults can change only *their* processes'
      residency, never this prefix's classification;
    * accesses are excluded once their time reaches the kswapd due
      point (they would trigger a scan) or a pending timeline/epoch
      boundary (events fire over the exact ``key < boundary`` prefix,
      same as the object event loop), so every shared-state observer
      sees the object engine's states.

    Faults, trace ends, events, and epochs all still flow through the
    scheduler's ordinary scalar pops; the window only strips the
    resident traffic those pops would have trickled through a couple
    of accesses at a time.
    """

    def __init__(self, scheduler, vmm) -> None:
        self.scheduler = scheduler
        self.vmm = vmm
        self.pipeline = vmm.pipeline
        self.states: list[list] = []
        for driver in scheduler.drivers:
            process = vmm.process(driver.pid)
            mask = process.page_table.ensure_resident_mask(
                process.address_space_pages
            )
            self.states.append(
                [
                    driver,
                    process.page_table,
                    process.resident_lru,
                    mask,
                    256,  # adaptive lookahead
                ]
            )
        self._cooldown = 0
        self._skip = 0
        self._dead = False

    def _solo_cores(self, live_pids: list[int]) -> dict[int, int] | None:
        """Map pid -> core, or None if any two live drivers share a core.

        Re-checked every attempt because a timeline callback may have
        migrated a process: co-location reintroduces core contention,
        which only the scalar pop loop models, so the window retires.
        """
        cores: dict[int, int] = {}
        seen: set[int] = set()
        for pid in live_pids:
            core = self.vmm.process(pid).core
            if core in seen:
                return None
            seen.add(core)
            cores[pid] = core
        return cores

    def _back_off(self) -> int:
        """Skip the next attempts, doubling the count each failure in a row."""
        self._cooldown = min(self._cooldown * 2 if self._cooldown else 1, WINDOW_MAX_COOLDOWN)
        self._skip = self._cooldown
        return 0

    def try_run(self, heap) -> int:
        """Attempt one window; returns accesses executed (0 = fall
        through to a scalar pop).  On success the heap is rebuilt from
        the advanced driver clocks (finished drivers keep their final
        pop entry so trailing timeline events still fire)."""
        if self._dead:
            return 0
        if self._skip:
            self._skip -= 1
            return 0
        scheduler = self.scheduler
        live = [s for s in self.states if not s[0].done]
        core_of = self._solo_cores([s[0].pid for s in live])
        if core_of is None:
            self._dead = True
            return 0
        due = self.pipeline.next_scan_due
        events_at = None
        if scheduler._timeline_index < len(scheduler._timeline):
            events_at = scheduler._timeline[scheduler._timeline_index][0]
        next_epoch = scheduler._next_epoch
        if next_epoch is not None and (events_at is None or next_epoch < events_at):
            events_at = next_epoch
        # Every live driver's resident run first: the window executes
        # at most their sum, so a sum below the minimum backs off before
        # any cumsum or searchsorted is paid.
        runs = []
        run_total = 0
        for state in live:
            driver = state[0]
            if not driver.cursor.ensure():
                continue
            clock_now = driver.clock.now
            if events_at is not None and clock_now >= events_at:
                continue
            vpns, writes, thinks = driver.cursor.tail()
            look = state[4]
            if look > len(vpns):
                look = len(vpns)
            mask = state[3]
            head = int(vpns[0])
            if 0 <= head < len(mask) and mask[head]:
                run = leading_resident(mask, vpns[:look])
            else:
                run = 0
            if run == look and state[4] < MAX_LOOKAHEAD:
                state[4] = state[4] * 2
            elif run < (look >> 2) and state[4] > MIN_LOOKAHEAD:
                state[4] = state[4] >> 1
            if run == 0:
                continue
            runs.append((state, clock_now, vpns, writes, thinks, run))
            run_total += run
        if run_total < WINDOW_MIN_ACCESSES:
            return self._back_off()
        plans = []
        total = 0
        for state, clock_now, vpns, writes, thinks, run in runs:
            cum = clock_now + np.cumsum(thinks[:run])
            n = run
            if events_at is not None:
                n = min(
                    n,
                    int(np.searchsorted(cum[: run - 1], events_at, side="left")) + 1,
                )
            # Never run an access at or past the kswapd due point: it
            # would have to fire the scan, and the scan must observe
            # the same cache state as in the object engine.
            n = min(n, int(np.searchsorted(cum[:n], due, side="left")))
            if n <= 0:
                continue
            plans.append((state, vpns, writes, n, int(cum[n - 1])))
            total += n
        if total < WINDOW_MIN_ACCESSES:
            return self._back_off()
        self._cooldown = 0
        tracer = self.vmm.tracer
        for state, vpns, writes, n, end in plans:
            driver, page_table, resident_lru = state[0], state[1], state[2]
            core = scheduler.cores[core_of[driver.pid]]
            start = driver.clock.now
            _apply_resident_run(page_table, resident_lru, vpns[:n], writes[:n])
            if tracer.enabled:
                tracer.span(KERNEL_WINDOW, core_track(core.core_id), start, end - start)
            driver.clock.advance_to(end)
            driver.kind_counts[AccessKind.RESIDENT] += n
            driver.accesses += n
            driver.cursor.advance(n)
            core.busy_until = end
            core.busy_ns += end - start
            core.accesses += n
        done_entries = [entry for entry in heap if entry[2].done]
        heap[:] = done_entries + [
            (driver.clock.now, i, driver)
            for i, driver in enumerate(scheduler.drivers)
            if not driver.done
        ]
        heapq.heapify(heap)
        return total
