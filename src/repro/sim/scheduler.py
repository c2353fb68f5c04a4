"""The simulator's event loop: N processes across M cores.

The paper's multi-tenant result (Figure 13) needs more than interleaved
traces: applications compete for *cores* as well as for the fabric, and
Leap's per-process-per-core isolation (§4.1) only matters when the
scheduler can actually migrate a process between cores.  This module
is the simulator's one event loop — ``simulate``, ``run_concurrent`` and
``run_cluster`` all run on it:

* every process is an event source; the heap orders events by the time
  a process becomes ready to issue its next access;
* each core is a single server: an access (think time plus whatever
  the VMM charges for the touch) *occupies* the process's core, so
  co-located processes contend and their completion times stretch;
* when a process has waited longer than ``migration_threshold_ns`` for
  its busy core while another core sits idle, the scheduler migrates it
  — paying ``migration_cost_ns`` for the cache/TLB refill — and the
  machine split-merges any per-core sharded prefetcher state
  (:class:`~repro.core.sharded_tracker.ShardedLeapTracker`).

Everything is driven by the deterministic (time, sequence) heap order,
so a fixed seed reproduces the exact same schedule, migrations
included.  When every process is alone on its core (``run_processes``),
nobody ever waits for a core and the schedule reduces to min-clock
interleaving: always step the process whose clock is furthest behind.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.obs.names import (
    SCHED_BURST,
    SCHED_EPOCH,
    SCHED_MIGRATE,
    SCHED_TIMELINE,
    TRACK_MACHINE,
    core_track,
)
from repro.sim.process import ProcessDriver, make_driver
from repro.sim.run import CoreSummary, RunResult, summarize_driver, warmup_process
from repro.sim.units import ms, us

__all__ = [
    "ConcurrentScheduler",
    "run_processes",
    "simulate_concurrent",
]

#: A timeline entry: (simulated time, callback).  The scheduler fires
#: the callback (with the scheduled time) as soon as the event loop
#: reaches that simulated time — failure injection, elasticity, etc.
TimelineEvent = tuple[int, Callable[[int], object]]

#: Default imbalance a process tolerates before migrating cores.
DEFAULT_MIGRATION_THRESHOLD_NS = ms(1)
#: Cache/TLB refill charged to a process when it changes cores.
DEFAULT_MIGRATION_COST_NS = us(50)
#: Minimum time between two migrations of the same process.
DEFAULT_MIGRATION_INTERVAL_NS = ms(10)


@dataclass(slots=True)
class _Core:
    """One simulated core: a single server for process execution."""

    core_id: int
    busy_until: int = 0
    busy_ns: int = 0
    accesses: int = 0


def _schedulable_cores(machine, cores: int | None) -> int:
    """*cores* (default: the machine's core count), range-checked."""
    n_cores = cores if cores is not None else machine.config.n_cores
    if n_cores < 1:
        raise ValueError(f"need at least one core, got {n_cores}")
    if n_cores > machine.config.n_cores:
        raise ValueError(
            f"cannot schedule {n_cores} cores on a machine configured "
            f"with {machine.config.n_cores}; raise MachineConfig.n_cores"
        )
    return n_cores


class ConcurrentScheduler:
    """Shared event loop interleaving process drivers across cores."""

    def __init__(
        self,
        machine,
        drivers: Iterable[ProcessDriver],
        cores: int | None = None,
        migration_threshold_ns: int = DEFAULT_MIGRATION_THRESHOLD_NS,
        migration_cost_ns: int = DEFAULT_MIGRATION_COST_NS,
        migration_interval_ns: int = DEFAULT_MIGRATION_INTERVAL_NS,
        allow_migration: bool = True,
        timeline: Sequence[TimelineEvent] | None = None,
        epoch_ns: int | None = None,
        on_epoch: Callable[[int, "ConcurrentScheduler"], object] | None = None,
    ) -> None:
        self.machine = machine
        self.drivers = list(drivers)
        self._timeline = sorted(timeline or (), key=lambda event: event[0])
        self._timeline_index = 0
        if epoch_ns is not None and epoch_ns <= 0:
            raise ValueError(f"epoch_ns must be positive, got {epoch_ns}")
        self.epoch_ns = epoch_ns
        self.on_epoch = on_epoch
        #: First epoch boundary: one epoch after the earliest driver
        #: clock, so epochs are relative to the measured phase no
        #: matter how far warmup advanced simulated time.
        self._next_epoch: int | None = None
        if epoch_ns is not None and on_epoch is not None and self.drivers:
            self._next_epoch = min(d.clock.now for d in self.drivers) + epoch_ns
        self.epochs_fired = 0
        n_cores = _schedulable_cores(machine, cores)
        self.cores = [_Core(core_id) for core_id in range(n_cores)]
        self.migration_threshold_ns = migration_threshold_ns
        self.migration_cost_ns = migration_cost_ns
        self.migration_interval_ns = migration_interval_ns
        self.allow_migration = allow_migration
        self.migrations = 0
        self._last_migration: dict[int, int] = {}
        #: Wait accumulated per pid since its last migration decision;
        #: a single wait is bounded by one access (a core is never more
        #: than one access ahead), so the migration signal has to be
        #: the *sustained* wait, not any single one.
        self._wait_accum: dict[int, int] = {}
        for driver in self.drivers:
            process = machine.vmm.process(driver.pid)
            if not 0 <= process.core < n_cores:
                # A process registered against more cores than the
                # scheduler runs with is folded onto the schedulable set.
                machine.migrate_process(driver.pid, process.core % n_cores)

    def _pick_idlest_core(self) -> _Core:
        best = self.cores[0]
        for core in self.cores[1:]:
            if core.busy_until < best.busy_until:
                best = core
        return best

    def _maybe_migrate(self, driver: ProcessDriver, core: _Core, now: int) -> _Core:
        """Decide whether *driver* should abandon its busy home core."""
        if not self.allow_migration or len(self.cores) == 1:
            return core
        pid = driver.pid
        waited = self._wait_accum.get(pid, 0) + (core.busy_until - now)
        self._wait_accum[pid] = waited
        if waited <= self.migration_threshold_ns:
            return core
        if now - self._last_migration.get(pid, -self.migration_interval_ns) < (
            self.migration_interval_ns
        ):
            return core
        best = self._pick_idlest_core()
        # Only move to a core that is idle *now* and stays cheaper even
        # after the migration cost — migrating onto another busy core
        # just ping-pongs the process without running it.
        if best.core_id == core.core_id:
            return core
        if best.busy_until > now:
            return core
        if now + self.migration_cost_ns >= core.busy_until:
            return core
        self.machine.migrate_process(pid, best.core_id)
        if self.machine.tracer.enabled:
            self.machine.tracer.instant(
                SCHED_MIGRATE, core_track(best.core_id), now, pid
            )
        self._last_migration[pid] = now
        self._wait_accum[pid] = 0
        driver.migrations += 1
        self.migrations += 1
        # The wait served so far is core wait; the migration cost is
        # then paid in real time from *now*, so the driver can never be
        # re-queued into the past and the wait is never silently
        # absorbed into the cost.
        waited = now - driver.clock.now
        if waited > 0:
            driver.core_wait_ns += waited
        driver.clock.advance_to(now)
        driver.clock.advance(self.migration_cost_ns)
        return best

    def _fire_due_events(self, now: int) -> None:
        """Run timeline callbacks whose simulated time has arrived."""
        while (
            self._timeline_index < len(self._timeline)
            and self._timeline[self._timeline_index][0] <= now
        ):
            at, callback = self._timeline[self._timeline_index]
            self._timeline_index += 1
            if self.machine.tracer.enabled:
                self.machine.tracer.instant(SCHED_TIMELINE, TRACK_MACHINE, at)
            callback(at)

    def _fire_due_epochs(self, now: int) -> None:
        """Run the control-plane epoch hook at every elapsed boundary.

        Fired from the event loop at the first event at-or-past each
        boundary, so the hook observes a consistent simulated-time
        snapshot; an idle stretch spanning several boundaries fires
        them back to back (the later ones see empty windows).
        """
        while self._next_epoch is not None and now >= self._next_epoch:
            at = self._next_epoch
            self._next_epoch = at + self.epoch_ns
            self.epochs_fired += 1
            if self.machine.tracer.enabled:
                self.machine.tracer.instant(
                    SCHED_EPOCH, TRACK_MACHINE, at, self.epochs_fired
                )
            self.on_epoch(at, self)

    def _build_window(self, vmm, max_total_accesses):
        """Build the cross-driver resident window if it can be exact.

        The vectorized engine's per-burst wins mostly vanish under
        concurrency — think-time lockstep keeps bursts a couple of
        accesses long — so the kernel instead bulk-executes every
        driver's resident prefix *between* scalar pops
        (:class:`repro.kernel.vectorized.ConcurrentResidentWindow`).
        That is provably exact only when every driver is columnar, a
        global access budget cannot cut a prefix short mid-window, at
        least two drivers exist (one driver's bursts already cover the
        solo case), and every driver is alone on its core, so core
        contention and migration never arise.  Anything else returns
        None and the pop loop runs unmodified.
        """
        if max_total_accesses is not None:
            return None
        if len(self.drivers) < 2:
            return None
        if any(driver.cursor is None for driver in self.drivers):
            return None
        from repro.kernel.vectorized import ConcurrentResidentWindow

        return ConcurrentResidentWindow(self, vmm)

    def run(self, max_total_accesses: int | None = None) -> RunResult:
        """Run every driver to completion (or to the access budget).

        Each pop runs the chosen driver as a *burst* through the
        batched fault path: it keeps executing accesses for as long as
        it would have stayed first in heap order anyway and no timeline
        or epoch boundary is due — so the schedule (and every simulated
        number) is bit-identical to stepping one access per pop, while
        uncontended stretches skip the per-access heap and event-check
        overhead entirely.
        """
        heap: list[tuple[int, int, ProcessDriver]] = []
        for index, driver in enumerate(self.drivers):
            heapq.heappush(heap, (driver.clock.now, index, driver))
        vmm = self.machine.vmm
        executed = 0
        window = self._build_window(vmm, max_total_accesses)
        while heap:
            if window is not None:
                ran_window = window.try_run(heap)
                if ran_window:
                    executed += ran_window
                    continue
            now, index, driver = heapq.heappop(heap)
            if self._timeline_index < len(self._timeline):
                self._fire_due_events(now)
            if self._next_epoch is not None:
                self._fire_due_epochs(now)
            if driver.done:
                continue
            process = vmm.process(driver.pid)
            core = self.cores[process.core]
            if core.busy_until > now:
                core = self._maybe_migrate(driver, core, now)
                if core.busy_until > driver.clock.now:
                    # Still waiting: sleep until the core frees up.
                    heapq.heappush(heap, (core.busy_until, index, driver))
                    continue
            start = max(now, driver.clock.now)
            waited = start - driver.clock.now
            if waited:
                driver.core_wait_ns += waited
                driver.clock.advance_to(start)
            # The burst must hand control back at the next timeline or
            # epoch boundary so its callbacks fire before any access
            # past them, exactly as in the one-access-per-pop loop.
            events_at: int | None = None
            if self._timeline_index < len(self._timeline):
                events_at = self._timeline[self._timeline_index][0]
            next_epoch = self._next_epoch
            if next_epoch is not None and (events_at is None or next_epoch < events_at):
                events_at = next_epoch
            if heap:
                stop_time, stop_index = heap[0][0], heap[0][1]
            else:
                stop_time, stop_index = None, 0
            budget = None if max_total_accesses is None else max_total_accesses - executed
            ran = driver.step_burst(vmm, index, stop_time, stop_index, events_at, budget)
            if not ran:
                continue
            end = driver.clock.now
            core.busy_until = end
            core.busy_ns += end - start
            core.accesses += ran
            if self.machine.tracer.enabled:
                self.machine.tracer.span(
                    SCHED_BURST, core_track(core.core_id), start, end - start
                )
            executed += ran
            if max_total_accesses is not None and executed >= max_total_accesses:
                driver.finished_ns = driver.clock.now
                for _, _, leftover in heap:
                    if not leftover.done:
                        leftover.finished_ns = leftover.clock.now
                break
            # A driver whose trace just ended is still re-queued: its
            # final pop is where due timeline events fired in the
            # per-access loop, and the pop path skips done drivers.
            heapq.heappush(heap, (end, index, driver))
        return RunResult(
            machine=self.machine,
            processes={driver.pid: summarize_driver(driver) for driver in self.drivers},
            cores={
                core.core_id: CoreSummary(
                    core_id=core.core_id,
                    busy_ns=core.busy_ns,
                    accesses=core.accesses,
                )
                for core in self.cores
            },
            migrations=self.migrations,
            unfired_timeline_events=len(self._timeline) - self._timeline_index,
        )


def run_processes(
    machine,
    drivers: Iterable[ProcessDriver],
    max_total_accesses: int | None = None,
) -> RunResult:
    """Run drivers to completion, each on its registered home core.

    Migration is off, so a process alone on its core never waits and
    the run is plain min-clock interleaving; processes that share a
    core contend for it.  ``max_total_accesses`` is a safety valve for
    open-ended traces: when the budget is hit, every driver is marked
    finished at its current clock, so completion times remain
    meaningful.
    """
    scheduler = ConcurrentScheduler(machine, drivers, allow_migration=False)
    return scheduler.run(max_total_accesses)


def simulate_concurrent(
    machine,
    workloads: Mapping[int, object],
    cores: int | None = None,
    memory_fraction: float = 0.5,
    warmup: bool = True,
    max_total_accesses: int | None = None,
    migration_threshold_ns: int = DEFAULT_MIGRATION_THRESHOLD_NS,
    migration_cost_ns: int = DEFAULT_MIGRATION_COST_NS,
    allow_migration: bool = True,
    timeline: Sequence[TimelineEvent] | None = None,
    epoch_ns: int | None = None,
    on_epoch: Callable[[int, ConcurrentScheduler], object] | None = None,
) -> RunResult:
    """Wire *workloads* onto *machine* and run them concurrently.

    The concurrent counterpart of :func:`repro.sim.simulate.simulate`:
    each process gets a cgroup limit of ``memory_fraction`` of its
    working set and a home core assigned round-robin over ``cores``
    (default: the machine's core count); working sets are materialized
    by a serialized warmup pass, measurements reset, and the measured
    phase runs through the :class:`ConcurrentScheduler`.

    *timeline* events are scheduled relative to the start of the
    measured phase (warmup shifts them), so a plan means the same thing
    at any working-set size.
    """
    if not workloads:
        raise ValueError("need at least one workload")
    if not 0.0 < memory_fraction <= 1.0:
        raise ValueError(f"memory_fraction must be in (0, 1], got {memory_fraction}")
    n_cores = _schedulable_cores(machine, cores)
    for slot, (pid, workload) in enumerate(workloads.items()):
        limit = max(2, int(workload.wss_pages * memory_fraction))
        machine.add_process(
            pid,
            wss_pages=workload.wss_pages,
            limit_pages=limit,
            core=slot % n_cores,
        )
    start_ns = 0
    if warmup:
        for pid in workloads:
            finish = warmup_process(machine, pid, start_ns=start_ns)
            start_ns = max(start_ns, finish)
        machine.reset_measurements()
    drivers = [
        make_driver(pid, workload, start_ns=start_ns, engine=machine.config.engine)
        for pid, workload in workloads.items()
    ]
    scheduler = ConcurrentScheduler(
        machine,
        drivers,
        cores=n_cores,
        migration_threshold_ns=migration_threshold_ns,
        migration_cost_ns=migration_cost_ns,
        allow_migration=allow_migration,
        timeline=[
            (start_ns + at, callback) for at, callback in (timeline or ())
        ],
        epoch_ns=epoch_ns,
        on_epoch=on_epoch,
    )
    return scheduler.run(max_total_accesses=max_total_accesses)
