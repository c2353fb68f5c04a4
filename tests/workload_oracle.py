"""Per-access reference generators for the workloads' block streams.

Workloads emit their traces only as columnar blocks
(:meth:`Workload.columnar_blocks`).  This module keeps the original
one-access-at-a-time generators those blocks are checked against: the
scalar vpn stream of each primitive pattern and of
:class:`PhasedWorkload`, the per-access loop that clamped those vpns
and drew write flags, and :class:`KVCacheWorkload`'s per-access replay
of its segment skeleton.  :func:`oracle_accesses` picks the right one
for a workload (segment mixes use :mod:`segment_oracle`).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.sim.process import PageAccess
from repro.sim.rng import SimRandom
from repro.workloads.kvcache import KVCacheWorkload
from repro.workloads.patterns import (
    RandomWorkload,
    SequentialWorkload,
    StrideWorkload,
    ZipfianWorkload,
)
from repro.workloads.phased import PHASE_KINDS, PhasedWorkload
from repro.workloads.segments import SegmentMixWorkload

import segment_oracle


def sequential_stream(self: SequentialWorkload, rng: SimRandom) -> Iterator[int]:
    while True:
        yield from range(self.wss_pages)


def stride_stream(self: StrideWorkload, rng: SimRandom) -> Iterator[int]:
    phase = 0
    position = 0
    while True:
        yield position
        position += self.stride
        if position >= self.wss_pages:
            phase = (phase + 1) % self.stride
            position = phase


def random_stream(self: RandomWorkload, rng: SimRandom) -> Iterator[int]:
    while True:
        yield rng.randrange(self.wss_pages)


def zipfian_stream(self: ZipfianWorkload, rng: SimRandom) -> Iterator[int]:
    # Scatter ranks across the address space so popularity does not
    # correlate with address adjacency.
    scatter = list(range(self.wss_pages))
    rng.spawn("scatter").shuffle(scatter)
    draw = rng.spawn("zipf")
    while True:
        yield scatter[draw.zipf(self.wss_pages, self.skew)]


def phase_stream(phase: Mapping, wss_pages: int, rng: SimRandom) -> Iterator[int]:
    """Infinite page stream for one phase spec."""
    kind = phase["kind"]
    if kind == "sequential":
        while True:
            yield from range(wss_pages)
    elif kind == "noisy-sequential":
        noise = float(phase.get("noise", 0.3))
        if not 0.0 <= noise < 1.0:
            raise ValueError(f"noise must be in [0, 1), got {noise}")
        position = 0
        while True:
            if rng.random() < noise:
                yield rng.randrange(wss_pages)
            else:
                yield position
                position = (position + 1) % wss_pages
    elif kind == "stride":
        stride = int(phase.get("stride", 10))
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        offset = 0
        position = 0
        while True:
            yield position
            position += stride
            if position >= wss_pages:
                offset = (offset + 1) % stride
                position = offset
    elif kind == "random":
        while True:
            yield rng.randrange(wss_pages)
    elif kind == "zipfian":
        skew = float(phase.get("skew", 0.99))
        scatter = list(range(wss_pages))
        rng.spawn("scatter").shuffle(scatter)
        draw = rng.spawn("zipf")
        while True:
            yield scatter[draw.zipf(wss_pages, skew)]
    elif kind == "permloop":
        loop_pages = int(phase.get("loop_pages", wss_pages))
        if not 2 <= loop_pages <= wss_pages:
            raise ValueError(
                f"loop_pages must be in [2, wss_pages={wss_pages}], got {loop_pages}"
            )
        order = list(range(loop_pages))
        rng.spawn("perm").shuffle(order)
        while True:
            yield from order
    else:
        raise ValueError(f"unknown phase kind {kind!r} (choose from {PHASE_KINDS})")


def phased_stream(self: PhasedWorkload, rng: SimRandom) -> Iterator[int]:
    for index, (phase, count) in enumerate(zip(self.phases, self.phase_accesses)):
        stream = phase_stream(phase, self.wss_pages, rng.spawn(f"phase{index}"))
        for _ in range(count):
            yield next(stream)


VPN_STREAMS = {
    SequentialWorkload: sequential_stream,
    StrideWorkload: stride_stream,
    RandomWorkload: random_stream,
    ZipfianWorkload: zipfian_stream,
    PhasedWorkload: phased_stream,
}


def accesses(self, vpn_stream) -> Iterator[PageAccess]:
    """The trace: ``total_accesses`` of :class:`PageAccess`."""
    rng = SimRandom(self.seed, f"workload/{self.name}")
    write_rng = rng.spawn("writes")
    emitted = 0
    for vpn in vpn_stream(self, rng.spawn("vpns")):
        if emitted >= self.total_accesses:
            return
        clamped = vpn % self.wss_pages
        is_write = (
            self.write_fraction > 0.0
            and write_rng.random() < self.write_fraction
        )
        yield PageAccess(vpn=clamped, is_write=is_write, think_ns=self.think_ns)
        emitted += 1
    if emitted < self.total_accesses:
        raise RuntimeError(
            f"workload {self.name} exhausted after {emitted} accesses, "
            f"expected {self.total_accesses}"
        )


def kvcache_accesses(self: KVCacheWorkload) -> Iterator[PageAccess]:
    rng = SimRandom(self.seed, f"workload/{self.name}")
    draw = rng.spawn("lookups")
    hot = self.hot_pages
    ring = self.ring_pages
    skew = self.recency_skew
    think = self.think_ns
    emitted = 0
    total = self.total_accesses
    for segment in self._segments():
        if segment[0] == "seq":
            _, start, length, is_write = segment
            for step in range(min(length, total - emitted)):
                yield PageAccess(
                    vpn=start + step, is_write=is_write, think_ns=think
                )
            emitted += min(length, total - emitted)
        else:
            _, count, avail, written = segment
            for _ in range(min(count, total - emitted)):
                offset = int(avail * draw.random() ** skew)
                if offset >= avail:
                    offset = avail - 1
                yield PageAccess(
                    vpn=hot + (written - 1 - offset) % ring,
                    is_write=False,
                    think_ns=think,
                )
            emitted += min(count, total - emitted)
        if emitted >= total:
            return


def oracle_accesses(workload) -> Iterator[PageAccess]:
    """*workload*'s trace generated one access at a time."""
    if isinstance(workload, KVCacheWorkload):
        return kvcache_accesses(workload)
    if isinstance(workload, SegmentMixWorkload):
        return segment_oracle.oracle_accesses(workload)
    return accesses(workload, VPN_STREAMS[type(workload)])
