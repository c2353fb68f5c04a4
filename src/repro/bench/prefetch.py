"""Prefetcher-quality experiments: Table 1, Figures 3, 8b, 9, 10.

These isolate the *prefetching algorithm* from the data path, the way
§5.2 does: PowerGraph runs on the default (block-layer) path against a
local disk, with only the prefetcher swapped between Next-N-Line,
Stride, Linux Read-Ahead, and Leap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.pattern_windows import WindowFractions, window_fractions
from repro.bench.runner import BenchScale, run_single
from repro.metrics.latency import summarize
from repro.sim.machine import disk_config
from repro.sim.run import RunResult
from repro.workloads.base import Workload, materialize_columns
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.numpy_matmul import NumpyMatmulWorkload
from repro.workloads.powergraph import PowerGraphWorkload
from repro.workloads.voltdb import VoltDBWorkload

__all__ = [
    "PREFETCHER_PROPERTIES",
    "Fig3Cell",
    "PrefetcherRun",
    "tab1_prefetcher_matrix",
    "fig3_pattern_windows",
    "fig8b_slow_storage",
    "fig9_fig10_prefetcher_comparison",
    "application_workloads",
]

#: Table 1 of the paper, as data.  Each row: technique → the seven
#: qualitative properties the paper compares.
PREFETCHER_PROPERTIES: dict[str, dict[str, bool]] = {
    "next-n-line": {
        "low_computational_complexity": True,
        "low_memory_overhead": True,
        "unmodified_application": True,
        "hw_sw_independent": True,
        "temporal_locality": False,
        "spatial_locality": True,
        "high_prefetch_utilization": False,
    },
    "stride": {
        "low_computational_complexity": True,
        "low_memory_overhead": True,
        "unmodified_application": True,
        "hw_sw_independent": True,
        "temporal_locality": False,
        "spatial_locality": True,
        "high_prefetch_utilization": False,
    },
    "ghb-pc": {
        "low_computational_complexity": False,
        "low_memory_overhead": False,
        "unmodified_application": True,
        "hw_sw_independent": False,
        "temporal_locality": True,
        "spatial_locality": True,
        "high_prefetch_utilization": True,
    },
    "instruction-prefetch": {
        "low_computational_complexity": False,
        "low_memory_overhead": False,
        "unmodified_application": False,
        "hw_sw_independent": False,
        "temporal_locality": True,
        "spatial_locality": True,
        "high_prefetch_utilization": True,
    },
    "readahead": {
        "low_computational_complexity": True,
        "low_memory_overhead": True,
        "unmodified_application": True,
        "hw_sw_independent": True,
        "temporal_locality": True,
        "spatial_locality": True,
        "high_prefetch_utilization": False,
    },
    "leap": {
        "low_computational_complexity": True,
        "low_memory_overhead": True,
        "unmodified_application": True,
        "hw_sw_independent": True,
        "temporal_locality": True,
        "spatial_locality": True,
        "high_prefetch_utilization": True,
    },
}


def tab1_prefetcher_matrix() -> dict[str, dict[str, bool]]:
    """Table 1 as structured data (Leap satisfies every column)."""
    return PREFETCHER_PROPERTIES


def application_workloads(scale: BenchScale) -> dict[str, Workload]:
    """The four §5.3 applications at benchmark scale."""
    return {
        "powergraph": PowerGraphWorkload(
            wss_pages=scale.wss_pages, total_accesses=scale.accesses, seed=scale.seed
        ),
        "numpy": NumpyMatmulWorkload(
            wss_pages=scale.wss_pages, total_accesses=scale.accesses, seed=scale.seed
        ),
        "voltdb": VoltDBWorkload(
            wss_pages=scale.wss_pages, total_accesses=scale.accesses, seed=scale.seed
        ),
        "memcached": MemcachedWorkload(
            wss_pages=scale.wss_pages, total_accesses=scale.accesses, seed=scale.seed
        ),
    }


# --------------------------------------------------------------------------
# Figure 3
# --------------------------------------------------------------------------
@dataclass
class Fig3Cell:
    application: str
    window: int
    majority: bool
    fractions: WindowFractions


def _workload_addresses(workload: Workload) -> list[int]:
    """The workload's vpn sequence, read off its columnar blocks."""
    vpn, _, _ = materialize_columns(workload)
    return vpn.tolist()


def fig3_pattern_windows(scale: BenchScale = BenchScale()) -> list[Fig3Cell]:
    """Strict vs majority window classification per application."""
    cells = []
    for name, workload in application_workloads(scale).items():
        addresses = _workload_addresses(workload)
        for window in (2, 4, 8):
            cells.append(
                Fig3Cell(name, window, False, window_fractions(addresses, window))
            )
        cells.append(
            Fig3Cell(name, 8, True, window_fractions(addresses, 8, majority=True))
        )
    return cells


# --------------------------------------------------------------------------
# Figures 8b, 9, 10
# --------------------------------------------------------------------------
@dataclass
class PrefetcherRun:
    prefetcher: str
    medium: str
    completion_seconds: float
    cache_adds: int
    cache_misses: int
    accuracy: float
    coverage: float
    pollution: int
    timeliness_p50_us: float
    timeliness_p99_us: float

    @classmethod
    def from_result(cls, prefetcher: str, medium: str, result: RunResult) -> "PrefetcherRun":
        metrics = result.metrics
        timeliness = summarize(metrics.timeliness_ns)
        return cls(
            prefetcher=prefetcher,
            medium=medium,
            completion_seconds=result.completion_seconds(1),
            cache_adds=result.cache_stats.prefetch_adds,
            cache_misses=metrics.misses,
            accuracy=metrics.accuracy,
            coverage=metrics.coverage,
            pollution=result.cache_stats.evicted_unused,
            timeliness_p50_us=timeliness.get("p50", 0.0) / 1000,
            timeliness_p99_us=timeliness.get("p99", 0.0) / 1000,
        )


def _powergraph_on_disk(prefetcher: str, medium: str, scale: BenchScale) -> PrefetcherRun:
    config = disk_config(medium=medium, prefetcher=prefetcher, seed=scale.seed)
    workload = PowerGraphWorkload(
        wss_pages=scale.wss_pages, total_accesses=scale.accesses, seed=scale.seed
    )
    result = run_single(config, workload, memory_fraction=0.5)
    return PrefetcherRun.from_result(prefetcher, medium, result)


def fig8b_slow_storage(scale: BenchScale = BenchScale()) -> list[PrefetcherRun]:
    """Leap's prefetcher vs Read-Ahead on HDD and SSD (Figure 8b)."""
    runs = []
    for medium in ("hdd", "ssd"):
        for prefetcher in ("readahead", "leap"):
            runs.append(_powergraph_on_disk(prefetcher, medium, scale))
    return runs


def fig9_fig10_prefetcher_comparison(scale: BenchScale = BenchScale()) -> list[PrefetcherRun]:
    """The four-prefetcher comparison of Figures 9 and 10."""
    return [
        _powergraph_on_disk(prefetcher, "hdd", scale)
        for prefetcher in ("next-n-line", "stride", "readahead", "leap")
    ]
