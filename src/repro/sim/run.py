"""Run results and the warmup pass.

:class:`RunResult` is what every entry point returns — ``simulate``,
``Machine.run_concurrent`` and ``Machine.run_cluster`` all run on the one
event loop in :mod:`repro.sim.scheduler`, so a single result type
carries the per-process summaries and the scheduler's core-level view.

``warmup_process`` performs the materialization pass: touching the
whole working set once populates the page tables, pushes the overflow
past the cgroup limit, and thereby lays pages out in the backing store
in eviction order — the layout both Read-Ahead and the slab mapper
depend on.  Measurements are normally reset after warmup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

from repro.mem.vmm import AccessKind
from repro.sim.machine import Machine
from repro.sim.process import ProcessDriver
from repro.sim.units import NS_PER_SEC, to_seconds

__all__ = [
    "CoreSummary",
    "ProcessSummary",
    "RunResult",
    "summarize_driver",
    "warmup_process",
    "sequential_touch",
]


@dataclass(slots=True)
class ProcessSummary:
    """Outcome of one process's trace."""

    pid: int
    accesses: int
    completion_ns: int
    kind_counts: dict[AccessKind, int]
    total_fault_latency_ns: int
    #: Per-fault latency samples (ns), for per-process percentiles.
    fault_latencies: list[int] = field(default_factory=list, repr=False)
    #: Time spent waiting for a busy core.
    core_wait_ns: int = 0
    #: Core migrations performed on this process.
    migrations: int = 0

    @property
    def completion_seconds(self) -> float:
        return to_seconds(self.completion_ns)

    def throughput_per_second(self, total_ops: int) -> float:
        """Operations per (virtual) second, for throughput workloads."""
        if self.completion_ns <= 0:
            return 0.0
        return total_ops * NS_PER_SEC / self.completion_ns


@dataclass(frozen=True, slots=True)
class CoreSummary:
    """Occupancy of one core over a run."""

    core_id: int
    busy_ns: int
    accesses: int

    def utilization(self, makespan_ns: int) -> float:
        if makespan_ns <= 0:
            return 0.0
        return self.busy_ns / makespan_ns


@dataclass(slots=True)
class RunResult:
    """Everything a benchmark needs from one run."""

    machine: Machine
    processes: dict[int, ProcessSummary]
    cores: dict[int, CoreSummary] = field(default_factory=dict)
    migrations: int = 0
    #: Timeline events (failure injections, limit-schedule phases)
    #: whose simulated time never arrived before the run finished —
    #: surfaced so short runs cannot silently drop the very events
    #: that define them.
    unfired_timeline_events: int = 0

    @property
    def recorder(self):
        return self.machine.recorder

    @property
    def metrics(self):
        return self.machine.metrics

    @property
    def cache_stats(self):
        return self.machine.cache.stats

    def completion_seconds(self, pid: int) -> float:
        return self.processes[pid].completion_seconds

    @property
    def makespan_ns(self) -> int:
        return max(summary.completion_ns for summary in self.processes.values())

    @property
    def total_core_wait_ns(self) -> int:
        return sum(summary.core_wait_ns for summary in self.processes.values())


def sequential_touch(wss_pages: int, think_ns: int = 200) -> Iterator[tuple[int, bool, int]]:
    """A one-pass sequential touch of every page (write, like loading),
    as ``(vpn, is_write, think_ns)`` tuples."""
    return zip(range(wss_pages), repeat(True), repeat(think_ns))


def warmup_process(machine: Machine, pid: int, start_ns: int = 0) -> int:
    """Materialize a process's working set; returns the finish time."""
    process = machine.vmm.process(pid)
    driver = ProcessDriver(
        pid, sequential_touch(process.address_space_pages), start_ns=start_ns
    )
    while driver.step_burst(machine.vmm):
        pass
    assert driver.finished_ns is not None
    return driver.finished_ns


def summarize_driver(driver: ProcessDriver) -> ProcessSummary:
    """Reduce a finished driver to its :class:`ProcessSummary`."""
    return ProcessSummary(
        pid=driver.pid,
        accesses=driver.accesses,
        completion_ns=driver.completion_ns,
        kind_counts=dict(driver.kind_counts),
        total_fault_latency_ns=driver.total_fault_latency_ns,
        fault_latencies=driver.fault_latencies,
        core_wait_ns=driver.core_wait_ns,
        migrations=driver.migrations,
    )
