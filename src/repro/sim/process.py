"""A simulated process executing a page-access trace.

Each process owns a private :class:`VirtualClock`.  The driver advances
it by the workload's *think time* (compute between memory touches) and
by whatever latency the VMM charges for the access itself.  The
event loop in :mod:`repro.sim.scheduler` interleaves processes in
(clock, index) order, which keeps shared infrastructure (dispatch
queues, kswapd) seeing globally monotonic time.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.mem.vmm import FAULT_KINDS, AccessKind, VirtualMemoryManager
from repro.sim.clock import VirtualClock

__all__ = ["PageAccess", "ProcessDriver", "make_driver"]


class PageAccess(NamedTuple):
    """One memory touch: which page, read or write, compute before it.

    A named tuple, so any ``(vpn, is_write, think_ns)`` tuple is an
    access as far as :class:`ProcessDriver` is concerned.
    """

    vpn: int
    is_write: bool = False
    think_ns: int = 0


class ProcessDriver:
    """Feeds one process's trace through the VMM.

    *trace* is any iterable of ``(vpn, is_write, think_ns)`` tuples —
    :class:`PageAccess` values or the plain tuples :func:`make_driver`
    zips off columnar blocks.
    """

    def __init__(
        self,
        pid: int,
        trace: Iterable[tuple[int, bool, int]] | None,
        start_ns: int = 0,
        cursor=None,
    ) -> None:
        if (trace is None) == (cursor is None):
            raise ValueError("provide exactly one of trace or cursor")
        self.pid = pid
        self._trace = iter(trace) if trace is not None else None
        #: Columnar trace source (:class:`repro.kernel.ColumnarCursor`)
        #: for the vectorized engine; when set, bursts dispatch to
        #: :func:`repro.kernel.vectorized.step_burst_columnar` and the
        #: object-engine loops below are never entered.
        self.cursor = cursor
        self.clock = VirtualClock(start_ns)
        self.started_ns = start_ns
        self.finished_ns: int | None = None
        self.accesses = 0
        self.kind_counts: dict[AccessKind, int] = {kind: 0 for kind in AccessKind}
        self.total_fault_latency_ns = 0
        #: Per-access latency of every remote/backing-store fault, in
        #: nanoseconds — the per-process population behind the paper's
        #: latency CDFs, and what :mod:`repro.perf` summarizes per app.
        self.fault_latencies: list[int] = []
        #: Time spent waiting for a busy core.
        self.core_wait_ns = 0
        #: Core migrations the scheduler performed on this process.
        self.migrations = 0
        #: Cached (process, is_resident, reference, page_table) for the
        #: burst fast path; the objects survive migration and limit
        #: resizes, so one lookup per driver lifetime suffices.
        self._burst_state: tuple | None = None
        #: Cached (page_table, resident_lru, mask) for the vectorized
        #: kernel, plus its adaptive classification lookahead.
        self._kernel_state: tuple | None = None
        self._lookahead = 64

    @property
    def done(self) -> bool:
        return self.finished_ns is not None

    @property
    def completion_ns(self) -> int:
        """Wall-clock (virtual) duration of the whole trace."""
        if self.finished_ns is None:
            raise RuntimeError(f"pid {self.pid} has not finished")
        return self.finished_ns - self.started_ns

    def step(self, vmm: VirtualMemoryManager) -> bool:
        """Execute the next access; returns False when the trace ended.

        The single-stepping oracle the burst paths are tested against;
        it reads the object trace only (drivers built with a ``cursor``
        run through :meth:`step_burst`).
        """
        if self.done:
            return False
        access = next(self._trace, None)
        if access is None:
            self.finished_ns = self.clock.now
            return False
        vpn, is_write, think = access
        self.clock.advance(think)
        outcome = vmm.access(self.pid, vpn, self.clock.now, is_write)
        self.clock.advance(outcome.latency_ns)
        self.accesses += 1
        self.kind_counts[outcome.kind] += 1
        if outcome.kind is not AccessKind.RESIDENT:
            self.total_fault_latency_ns += outcome.latency_ns
            if outcome.kind in FAULT_KINDS:
                self.fault_latencies.append(outcome.latency_ns)
        return True

    def step_burst(
        self,
        vmm: VirtualMemoryManager,
        index: int = 0,
        stop_time: int | None = None,
        stop_index: int = 0,
        events_at: int | None = None,
        budget: int | None = None,
    ) -> int:
        """Execute consecutive accesses through the batched fault path.

        The burst runs until the trace ends, *budget* accesses have
        executed, the driver's clock reaches *events_at* (a pending
        timeline or epoch boundary the caller's event loop must fire
        first), or ``(clock.now, index)`` stops being first in heap
        order against ``(stop_time, stop_index)`` — exactly the points
        at which the per-access event loop would have preempted this
        driver, so a burst run is bit-identical to single stepping.

        The fault pipeline's batch boundary runs once up front (drain
        completions, background-reclaim check); inside the burst,
        resident hits take a short inline path and everything else goes
        through :meth:`FaultPipeline.access`.  Returns the number of
        accesses executed (0 when the trace had already ended).

        Drivers built for the vectorized engine (``cursor`` set)
        dispatch to :func:`repro.kernel.vectorized.step_burst_columnar`,
        which honours the identical stop contract but classifies and
        applies whole resident runs as array operations.
        """
        if self.cursor is not None:
            from repro.kernel.vectorized import step_burst_columnar

            return step_burst_columnar(
                self, vmm, index, stop_time, stop_index, events_at, budget
            )
        if self.done:
            return 0
        pipeline = vmm.pipeline
        pipeline.begin_batch(self.clock.now)
        state = self._burst_state
        if state is None:
            process = pipeline.process(self.pid)
            state = self._burst_state = (
                process.page_table,
                process.page_table.is_resident,
                process.resident_lru.reference,
                process.address_space_pages,
            )
        page_table, is_resident, reference, address_space = state
        clock = self.clock
        trace = self._trace
        kind_counts = self.kind_counts
        fault_latencies = self.fault_latencies
        pipeline_access = pipeline.access
        pid = self.pid
        fault_kinds = FAULT_KINDS
        executed = 0
        resident_hits = 0
        try:
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
                access = next(trace, None)
                if access is None:
                    self.finished_ns = clock.now
                    break
                vpn, is_write, think = access
                now = clock.advance(think)
                if 0 <= vpn < address_space and is_resident(vpn):
                    # Inline resident fast path: identical bookkeeping
                    # to the pipeline's classify stage, minus the call.
                    if now >= pipeline.next_scan_due:
                        pipeline.run_scans(now)
                    reference(vpn)
                    if is_write:
                        page_table.mark_dirty(vpn)
                    resident_hits += 1
                else:
                    outcome = pipeline_access(pid, vpn, now, is_write)
                    latency = outcome.latency_ns
                    clock.advance(latency)
                    kind_counts[outcome.kind] += 1
                    self.total_fault_latency_ns += latency
                    if outcome.kind in fault_kinds:
                        fault_latencies.append(latency)
                self.accesses += 1
                executed += 1
        finally:
            if resident_hits:
                kind_counts[AccessKind.RESIDENT] += resident_hits
        return executed


def make_driver(
    pid: int,
    workload,
    start_ns: int = 0,
    engine: str = "object",
    block_size: int | None = None,
) -> ProcessDriver:
    """Build a :class:`ProcessDriver` for *workload* under *engine*.

    Both engines read the workload's :meth:`Workload.columnar_blocks`
    through a :class:`~repro.kernel.ColumnarCursor`.  ``"object"`` walks
    each block one access at a time as ``(vpn, is_write, think_ns)``
    tuples zipped off its columns (:meth:`ColumnarCursor.tuples`);
    ``"vectorized"`` hands the cursor itself to the burst kernel.  The
    access sequence is the same, so the simulated schedule is
    bit-identical either way.
    """
    if engine not in ("object", "vectorized"):
        raise ValueError(f"unknown engine {engine!r}")
    from repro.kernel.columnar import DEFAULT_BLOCK_SIZE, ColumnarCursor

    cursor = ColumnarCursor(workload.columnar_blocks(block_size or DEFAULT_BLOCK_SIZE))
    if engine == "object":
        return ProcessDriver(pid, cursor.tuples(), start_ns)
    return ProcessDriver(pid, None, start_ns, cursor=cursor)
