"""Application-level experiments: Figures 4, 11, 12, and 13.

The end-to-end section of the evaluation: the four applications under
cgroup limits of 100% / 50% / 25% across Disk, D-VMM (Infiniswap
default path), and D-VMM + Leap; constrained prefetch-cache sizes; and
all four applications contending for the fabric at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.prefetch import application_workloads
from repro.bench.runner import BenchScale, run_single
from repro.metrics.latency import summarize
from repro.sim.machine import Machine, disk_config, infiniswap_config, leap_config
from repro.workloads.powergraph import PowerGraphWorkload

__all__ = [
    "Fig4Result",
    "Fig11Cell",
    "Fig12Cell",
    "Fig13Cell",
    "fig4_lazy_eviction_wait",
    "fig11_applications",
    "fig12_cache_limits",
    "fig13_concurrent_applications",
    "THROUGHPUT_APPS",
]

#: Applications the paper reports as throughput rather than completion.
THROUGHPUT_APPS = ("voltdb", "memcached")


# --------------------------------------------------------------------------
# Figure 4
# --------------------------------------------------------------------------
@dataclass
class Fig4Result:
    policy: str
    stale_wait_p50_ms: float
    stale_wait_p99_ms: float
    freed_entries: int


def fig4_lazy_eviction_wait(scale: BenchScale = BenchScale()) -> list[Fig4Result]:
    """How long consumed cache pages linger before being freed.

    Under the kernel's lazy policy a consumed entry waits for a kswapd
    scan (seconds-scale in the paper's Figure 4); Leap's eager policy
    frees it at consume time, so its waits collapse to zero.
    """
    results = []
    for policy, config in (
        ("lazy", infiniswap_config(seed=scale.seed)),
        ("eager", leap_config(seed=scale.seed)),
    ):
        workload = PowerGraphWorkload(
            wss_pages=scale.wss_pages, total_accesses=scale.accesses, seed=scale.seed
        )
        result = run_single(config, workload, memory_fraction=0.5)
        waits = result.cache_stats.stale_wait_ns
        stats = summarize(waits)
        results.append(
            Fig4Result(
                policy=policy,
                stale_wait_p50_ms=stats["p50"] / 1e6,
                stale_wait_p99_ms=stats["p99"] / 1e6,
                freed_entries=len(waits),
            )
        )
    return results


# --------------------------------------------------------------------------
# Figure 11
# --------------------------------------------------------------------------
@dataclass
class Fig11Cell:
    application: str
    system: str
    memory_fraction: float
    completion_seconds: float
    throughput_kops: float | None
    faults: int


def fig11_applications(
    scale: BenchScale = BenchScale(),
    fractions: tuple[float, ...] = (1.0, 0.5, 0.25),
) -> list[Fig11Cell]:
    """The full application × system × memory-limit grid."""
    systems = [
        ("disk", lambda: disk_config(medium="hdd", seed=scale.seed)),
        ("d-vmm", lambda: infiniswap_config(seed=scale.seed)),
        ("d-vmm+leap", lambda: leap_config(seed=scale.seed)),
    ]
    cells = []
    for app_name in ("powergraph", "numpy", "voltdb", "memcached"):
        for fraction in fractions:
            for system_name, config_fn in systems:
                workload = application_workloads(scale)[app_name]
                result = run_single(config_fn(), workload, memory_fraction=fraction)
                throughput = None
                if app_name in THROUGHPUT_APPS:
                    throughput = (
                        result.processes[1].throughput_per_second(workload.total_ops)
                        / 1000.0
                    )
                cells.append(
                    Fig11Cell(
                        application=app_name,
                        system=system_name,
                        memory_fraction=fraction,
                        completion_seconds=result.completion_seconds(1),
                        throughput_kops=throughput,
                        faults=result.metrics.faults,
                    )
                )
    return cells


def fig11_lookup(
    cells: list[Fig11Cell], application: str, system: str, fraction: float
) -> Fig11Cell:
    """Find one grid cell (helper for assertions and reports)."""
    for cell in cells:
        if (
            cell.application == application
            and cell.system == system
            and abs(cell.memory_fraction - fraction) < 1e-9
        ):
            return cell
    raise KeyError((application, system, fraction))


# --------------------------------------------------------------------------
# Figure 12
# --------------------------------------------------------------------------
@dataclass
class Fig12Cell:
    application: str
    cache_limit_pages: int | None
    completion_seconds: float
    throughput_kops: float | None


def fig12_cache_limits(
    scale: BenchScale = BenchScale(),
    cache_limits: tuple[int | None, ...] = (None, 2048, 256, 32),
) -> list[Fig12Cell]:
    """Leap under shrinking prefetch-cache budgets (Figure 12).

    The paper uses absolute sizes (unbounded / 320 MB / 32 MB /
    3.2 MB); at our scaled working sets the equivalent pressure points
    are expressed in pages.  The expected result is Leap's: because
    prefetched pages are consumed and eagerly freed quickly, even a
    cache of tens of pages costs only ~12% performance.
    """
    cells = []
    for app_name in ("powergraph", "numpy", "voltdb", "memcached"):
        for limit in cache_limits:
            config = leap_config(seed=scale.seed, cache_capacity_pages=limit)
            workload = application_workloads(scale)[app_name]
            result = run_single(config, workload, memory_fraction=0.5)
            throughput = None
            if app_name in THROUGHPUT_APPS:
                throughput = (
                    result.processes[1].throughput_per_second(workload.total_ops) / 1000.0
                )
            cells.append(
                Fig12Cell(
                    application=app_name,
                    cache_limit_pages=limit,
                    completion_seconds=result.completion_seconds(1),
                    throughput_kops=throughput,
                )
            )
    return cells


# --------------------------------------------------------------------------
# Figure 13
# --------------------------------------------------------------------------
@dataclass
class Fig13Cell:
    application: str
    system: str
    completion_seconds: float


def fig13_concurrent_applications(
    scale: BenchScale = BenchScale(),
    cores: int = 4,
) -> list[Fig13Cell]:
    """All four applications sharing one host and fabric (Figure 13).

    Each application keeps its own 50% cgroup limit and a home core;
    the event-driven concurrent engine interleaves them, so they
    contend for cores and the RDMA dispatch queues and — on the default
    path — confuse each other's shared readahead state, while Leap's
    per-(process, core) trackers stay isolated.  ``repro perf
    --profile fig13`` runs the Leap half of this at CI scale.
    """
    pids = {"powergraph": 1, "numpy": 2, "voltdb": 3, "memcached": 4}
    cells = []
    for system_name, config_fn in (
        ("d-vmm", lambda: infiniswap_config(seed=scale.seed)),
        ("d-vmm+leap", lambda: leap_config(seed=scale.seed)),
    ):
        machine = Machine(config_fn())
        workloads = {
            pids[name]: workload
            for name, workload in application_workloads(scale).items()
        }
        result = machine.run_concurrent(workloads, cores=cores, memory_fraction=0.5)
        for name, pid in pids.items():
            cells.append(
                Fig13Cell(
                    application=name,
                    system=system_name,
                    completion_seconds=result.completion_seconds(pid),
                )
            )
    return cells
