"""Shared plumbing for the per-figure experiments.

Every experiment follows the same recipe: build machines from configs,
run workloads through :func:`repro.sim.simulate.simulate`, and reduce
the recorders into the rows the paper's figure plots.  The
:class:`BenchScale` dataclass concentrates the scale knobs so the whole
suite can be shrunk for CI or grown for fidelity from one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.machine import Machine, MachineConfig
from repro.sim.run import RunResult
from repro.sim.simulate import simulate
from repro.workloads.base import Workload

__all__ = [
    "BenchScale",
    "run_single",
    "latency_improvement",
]


@dataclass(frozen=True)
class BenchScale:
    """Scale knobs shared by all experiments.

    The defaults run the full suite in a few minutes while keeping
    every ratio meaningful; the paper's absolute working-set sizes
    (9–38 GB) are scaled down ~500× with think times calibrated so the
    compute-to-fault balance is preserved (see DESIGN.md §5).
    """

    wss_pages: int = 12_288
    accesses: int = 50_000
    micro_wss_pages: int = 8_192
    micro_accesses: int = 30_000
    seed: int = 42


def run_single(
    config: MachineConfig,
    workload: Workload,
    memory_fraction: float,
    pid: int = 1,
) -> RunResult:
    """Build a machine, run one workload, return the result."""
    machine = Machine(config)
    return simulate(machine, {pid: workload}, memory_fraction=memory_fraction)


def latency_improvement(
    baseline: RunResult, improved: RunResult, percentile: float
) -> float:
    """How many times lower *improved*'s fault latency is at *percentile*."""
    base = baseline.recorder.percentile(percentile)
    new = improved.recorder.percentile(percentile)
    if new <= 0:
        return float("inf")
    return base / new
