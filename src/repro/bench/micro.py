"""Microbenchmark experiments: Figures 1, 2, 7, and 8a.

These reproduce the latency-centric early figures of the paper:

* **Figure 1** — the stage-by-stage budget of one default-path miss.
* **Figure 2** — 4 KB access latency distributions for Sequential and
  Stride-10 on the *default* data path (disk, D-VMM, D-VFS).
* **Figure 7** — the same two patterns with Leap on D-VMM and D-VFS.
* **Figure 8a** — benefit breakdown on PowerGraph: lean data path
  alone, plus the prefetcher, plus eager eviction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import BenchScale, latency_improvement, run_single
from repro.datapath.stages import (
    CACHE_LOOKUP_NS,
    default_lean_stages,
    default_legacy_stages,
)
from repro.metrics.latency import percentile
from repro.sim.machine import (
    Machine,
    MachineConfig,
    disk_config,
    infiniswap_config,
    leap_config,
)
from repro.sim.rng import SimRandom
from repro.sim.units import PAGE_SIZE, to_us, us
from repro.vfs.remote_regions import RemoteRegionFS
from repro.workloads.base import materialize_columns
from repro.workloads.patterns import SequentialWorkload, StrideWorkload
from repro.workloads.powergraph import PowerGraphWorkload

__all__ = [
    "Fig1Row",
    "LatencyRow",
    "Fig8aRow",
    "fig1_datapath_breakdown",
    "fig2_default_path_latency",
    "fig7_leap_latency",
    "fig8a_benefit_breakdown",
]

#: Think time for the §2 microbenchmarks (a tight touch loop).
MICRO_THINK_NS = 2_000


# --------------------------------------------------------------------------
# Figure 1
# --------------------------------------------------------------------------
@dataclass
class Fig1Row:
    stage: str
    mean_us: float


def fig1_datapath_breakdown(seed: int = 42, samples: int = 2_000) -> list[Fig1Row]:
    """Average time per data path stage, as in the Figure 1 annotations."""
    rng = SimRandom(seed, "fig1")
    legacy = default_legacy_stages(rng.spawn("legacy"))
    lean = default_lean_stages(rng.spawn("lean"))
    legacy_samples = [legacy.sample_read() for _ in range(samples)]
    lean_samples = [lean.sample_read() for _ in range(samples)]

    def mean(values: list[int]) -> float:
        return sum(values) / len(values)

    return [
        Fig1Row("cache lookup", to_us(CACHE_LOOKUP_NS)),
        Fig1Row(
            "legacy: request prep (bio + device mapping)",
            to_us(mean([s.prep_ns for s in legacy_samples])),
        ),
        Fig1Row(
            "legacy: block queueing (insert/merge/sort/stage)",
            to_us(mean([s.queueing_ns for s in legacy_samples])),
        ),
        Fig1Row(
            "driver dispatch",
            to_us(mean([s.dispatch_ns for s in legacy_samples])),
        ),
        Fig1Row(
            "leap: software overhead",
            to_us(mean([s.prep_ns for s in lean_samples])),
        ),
        Fig1Row("medium: rdma 4KB", to_us(us(4.3))),
        Fig1Row("medium: ssd 4KB", to_us(us(20))),
        Fig1Row("medium: hdd 4KB", to_us(us(91.48))),
    ]


# --------------------------------------------------------------------------
# Figures 2 and 7 — paging (D-VMM) rows
# --------------------------------------------------------------------------
@dataclass
class LatencyRow:
    system: str
    pattern: str
    p50_us: float
    p99_us: float
    samples: int


def _microbench_workload(pattern: str, scale: BenchScale):
    if pattern == "sequential":
        return SequentialWorkload(
            scale.micro_wss_pages,
            scale.micro_accesses,
            seed=scale.seed,
            think_ns=MICRO_THINK_NS,
        )
    return StrideWorkload(
        scale.micro_wss_pages,
        scale.micro_accesses,
        stride=10,
        seed=scale.seed,
        think_ns=MICRO_THINK_NS,
    )


def _paging_row(
    system: str, pattern: str, config: MachineConfig, scale: BenchScale
) -> LatencyRow:
    result = run_single(config, _microbench_workload(pattern, scale), memory_fraction=0.5)
    stats = result.recorder.summary()
    return LatencyRow(
        system=system,
        pattern=pattern,
        p50_us=to_us(stats["p50"]),
        p99_us=to_us(stats["p99"]),
        samples=int(stats["count"]),
    )


# --------------------------------------------------------------------------
# Figures 2 and 7 — file (D-VFS) rows
# --------------------------------------------------------------------------
def _vfs_row(system: str, pattern: str, leap: bool, scale: BenchScale) -> LatencyRow:
    config = leap_config(seed=scale.seed) if leap else infiniswap_config(seed=scale.seed)
    machine = Machine(config)
    fs = RemoteRegionFS(
        machine.vmm, SimRandom(scale.seed, "vfs-bench"), legacy_path=not leap
    )
    region = fs.create_region("bench", scale.micro_wss_pages * PAGE_SIZE)
    now = 0
    # The paper's D-VFS microbenchmark writes the region once (1 GB
    # write) and then reads it back in the pattern under test.
    for vpn in range(region.size_pages):
        latency, _ = region.write(vpn * PAGE_SIZE, PAGE_SIZE, now)
        now += latency + MICRO_THINK_NS
    machine.reset_measurements()
    samples: list[int] = []
    vpns, _, _ = materialize_columns(_microbench_workload(pattern, scale))
    for vpn in vpns.tolist():
        latency, _ = region.read(vpn * PAGE_SIZE, PAGE_SIZE, now)
        now += latency + MICRO_THINK_NS
        samples.append(latency)
    return LatencyRow(
        system=system,
        pattern=pattern,
        p50_us=to_us(percentile(samples, 50)),
        p99_us=to_us(percentile(samples, 99)),
        samples=len(samples),
    )


def fig2_default_path_latency(scale: BenchScale = BenchScale()) -> list[LatencyRow]:
    """Default-path latency for Sequential and Stride-10 (Figure 2)."""
    rows = []
    for pattern in ("sequential", "stride-10"):
        rows.append(_paging_row("disk", pattern, disk_config(medium="hdd", seed=scale.seed), scale))
        rows.append(_paging_row("d-vmm", pattern, infiniswap_config(seed=scale.seed), scale))
        rows.append(_vfs_row("d-vfs", pattern, leap=False, scale=scale))
    return rows


def fig7_leap_latency(scale: BenchScale = BenchScale()) -> dict:
    """Leap vs the default path on D-VMM and D-VFS (Figure 7)."""
    rows: list[LatencyRow] = []
    improvements: dict[str, dict[str, float]] = {}
    for pattern in ("sequential", "stride-10"):
        base = run_single(
            infiniswap_config(seed=scale.seed),
            _microbench_workload(pattern, scale),
            memory_fraction=0.5,
        )
        leap = run_single(
            leap_config(seed=scale.seed),
            _microbench_workload(pattern, scale),
            memory_fraction=0.5,
        )
        for name, result in (("d-vmm", base), ("d-vmm+leap", leap)):
            stats = result.recorder.summary()
            rows.append(
                LatencyRow(
                    name, pattern, to_us(stats["p50"]), to_us(stats["p99"]), int(stats["count"])
                )
            )
        improvements[f"d-vmm/{pattern}"] = {
            "median": latency_improvement(base, leap, 50),
            "p99": latency_improvement(base, leap, 99),
        }
        vfs_base = _vfs_row("d-vfs", pattern, leap=False, scale=scale)
        vfs_leap = _vfs_row("d-vfs+leap", pattern, leap=True, scale=scale)
        rows.extend([vfs_base, vfs_leap])
        improvements[f"d-vfs/{pattern}"] = {
            "median": vfs_base.p50_us / vfs_leap.p50_us,
            "p99": vfs_base.p99_us / vfs_leap.p99_us,
        }
    return {"rows": rows, "improvements": improvements}


# --------------------------------------------------------------------------
# Figure 8a
# --------------------------------------------------------------------------
@dataclass
class Fig8aRow:
    variant: str
    p50_us: float
    p95_us: float
    p99_us: float


def fig8a_benefit_breakdown(scale: BenchScale = BenchScale()) -> list[Fig8aRow]:
    """Leap's component-by-component latency benefit (Figure 8a)."""
    variants = [
        ("data path only", leap_config(prefetcher="none", eviction="lazy", seed=scale.seed)),
        ("+ prefetcher", leap_config(eviction="lazy", seed=scale.seed)),
        ("+ eager eviction", leap_config(seed=scale.seed)),
    ]
    rows = []
    for name, config in variants:
        workload = PowerGraphWorkload(
            wss_pages=scale.wss_pages, total_accesses=scale.accesses, seed=scale.seed
        )
        result = run_single(config, workload, memory_fraction=0.5)
        stats = result.recorder.summary()
        rows.append(
            Fig8aRow(name, to_us(stats["p50"]), to_us(stats["p95"]), to_us(stats["p99"]))
        )
    return rows
