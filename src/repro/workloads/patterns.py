"""Primitive access patterns: the §2 microbenchmarks and building blocks.

``SequentialWorkload`` and ``StrideWorkload`` are the two
microbenchmarks of Figures 2 and 7 (sequential scan; stride of 10
pages).  ``RandomWorkload`` and ``ZipfianWorkload`` are the irregular
extremes the application traces mix in.
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import SimRandom
from repro.workloads.base import Workload

__all__ = [
    "SequentialWorkload",
    "StrideWorkload",
    "RandomWorkload",
    "ZipfianWorkload",
]


class SequentialWorkload(Workload):
    """Scan the working set front to back, repeatedly."""

    name = "sequential"

    def _columnar_vpn_blocks(self, rng: SimRandom, block_size: int):
        sweep = np.arange(self.wss_pages, dtype=np.int64)
        while True:
            yield sweep


class StrideWorkload(Workload):
    """Walk the working set with a fixed page stride (default 10).

    Mirrors the paper's Stride-10 microbenchmark: sweep the region in
    strides of ``stride`` pages, then restart one page over, so that
    *every* page is eventually touched but consecutive accesses are
    never adjacent.  With memory for only half the region, each page is
    evicted long before its next visit, so under sequential-only
    readahead every access misses (the Figure 2b cliff) — while the
    trace remains perfectly predictable for a stride-aware detector.
    """

    name = "stride"

    def __init__(self, wss_pages: int, total_accesses: int, stride: int = 10, **kwargs) -> None:
        super().__init__(wss_pages, total_accesses, **kwargs)
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        self.stride = stride
        self.name = f"stride-{stride}"

    def _columnar_vpn_blocks(self, rng: SimRandom, block_size: int):
        wss, stride = self.wss_pages, self.stride
        phase = 0
        while True:
            # One sweep starting at `phase`; a start past the region
            # (stride > wss) is still visited once before wrapping.
            if phase < wss:
                yield np.arange(phase, wss, stride, dtype=np.int64)
            else:
                yield np.array([phase], dtype=np.int64)
            phase = (phase + 1) % stride


class RandomWorkload(Workload):
    """Uniform-random page access: the unpredictable extreme."""

    name = "random"

    def _columnar_vpn_blocks(self, rng: SimRandom, block_size: int):
        # randrange draws cannot be vectorized bit-exactly (they come
        # from Python's Mersenne Twister), so they are batched instead.
        wss = self.wss_pages
        randrange = rng.randrange
        while True:
            yield np.fromiter(
                (randrange(wss) for _ in range(block_size)),
                np.int64,
                count=block_size,
            )


class ZipfianWorkload(Workload):
    """Skewed random access (hot pages exist, but no spatial pattern)."""

    name = "zipfian"

    def __init__(
        self, wss_pages: int, total_accesses: int, skew: float = 0.99, **kwargs
    ) -> None:
        super().__init__(wss_pages, total_accesses, **kwargs)
        if skew <= 0:
            raise ValueError(f"skew must be positive, got {skew}")
        self.skew = skew

    def _columnar_vpn_blocks(self, rng: SimRandom, block_size: int):
        # Ranks are scattered across the address space so popularity
        # does not correlate with address adjacency.  The uniform draws
        # are SimRandom.zipf's; searchsorted on the float64 CDF computes
        # its bisect_left index.
        from repro.sim.rng import _zipf_cdf

        wss = self.wss_pages
        scatter = list(range(wss))
        rng.spawn("scatter").shuffle(scatter)
        draw = rng.spawn("zipf")
        scatter_arr = np.array(scatter, dtype=np.int64)
        cdf = np.array(_zipf_cdf(wss, self.skew), dtype=np.float64)
        while True:
            u = draw.random_array(block_size)
            ranks = np.minimum(np.searchsorted(cdf, u, side="left"), wss - 1)
            yield scatter_arr[ranks]
