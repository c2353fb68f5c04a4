"""One-call simulation entry point.

``simulate`` wires workloads onto a machine the way the paper's
evaluation does: each process gets a cgroup limit expressed as a
fraction of its peak (working set) memory — the 100% / 50% / 25%
columns of Figure 11 — the working set is materialized by a warmup
pass, measurements are reset, and the measured run is executed by
:func:`~repro.sim.scheduler.run_processes` on the one event loop.

Like ``run_concurrent`` and ``run_cluster``, every access faults through
the one staged :class:`~repro.datapath.pipeline.FaultPipeline` via the
batched driver path (:meth:`~repro.sim.process.ProcessDriver.step_burst`),
so completions are drained and background reclaim checked at batch
boundaries instead of once per access.
"""

from __future__ import annotations

from typing import Mapping

from repro.sim.machine import Machine
from repro.sim.process import make_driver
from repro.sim.run import RunResult, warmup_process
from repro.sim.scheduler import run_processes
from repro.workloads.base import Workload

__all__ = ["simulate"]


def simulate(
    machine: Machine,
    workloads: Mapping[int, Workload],
    memory_fraction: float = 0.5,
    warmup: bool = True,
    max_total_accesses: int | None = None,
) -> RunResult:
    """Run *workloads* (pid → workload) on *machine*.

    ``memory_fraction`` sets every process's cgroup limit to that
    fraction of its working set (the paper's 1.0 / 0.5 / 0.25 settings).
    Returns the measured :class:`RunResult`; warmup activity is excluded
    from all metrics.

    Processes are pinned round-robin over ``config.n_cores`` and never
    migrate.  Up to ``n_cores`` processes each get a core of their own,
    so none ever waits for one; beyond that, processes sharing a core
    contend for it.
    """
    if not workloads:
        raise ValueError("need at least one workload")
    if not 0.0 < memory_fraction <= 1.0:
        raise ValueError(
            f"memory_fraction must be in (0, 1], got {memory_fraction}"
        )
    for pid, workload in workloads.items():
        limit = max(2, int(workload.wss_pages * memory_fraction))
        machine.add_process(pid, wss_pages=workload.wss_pages, limit_pages=limit)
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
    return run_processes(machine, drivers, max_total_accesses=max_total_accesses)
