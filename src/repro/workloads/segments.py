"""Segment-mix workloads: the scaffold behind the application traces.

Each application trace is a burst-interleaving of per-thread streams;
each stream emits *segments* — a sequential run, a stride run, or an
irregular run — drawn from a per-application weight table.  Tuning the
weights and segment shapes against the paper's measured pattern mixes
(Figure 3 plus the percentages quoted in §5.3) gives synthetic traces
that pose the same detection problem to a prefetcher as the real
applications did, which is all a prefetcher ever observes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

import numpy as np

from repro.sim.rng import SimRandom, _zipf_cdf
from repro.workloads.base import Workload
from repro.workloads.mixer import burst_interleave, weighted_choice

__all__ = ["SegmentMixWorkload"]


class SegmentMixWorkload(Workload):
    """Composite workload built from weighted pattern segments."""

    name = "segment-mix"

    def __init__(
        self,
        wss_pages: int,
        total_accesses: int,
        *,
        sequential_weight: float,
        stride_weight: float,
        irregular_weight: float,
        seq_run_pages: tuple[int, int] = (32, 128),
        strides: tuple[int, ...] = (2, 4, 8, 16),
        stride_run_steps: tuple[int, int] = (16, 48),
        irregular_run_steps: tuple[int, int] = (4, 16),
        irregular_skew: float | None = None,
        hot_fraction: float | None = None,
        interleave: int = 1,
        burst: tuple[int, int] = (4, 16),
        phase_correlated: bool = False,
        phase_accesses: tuple[int, int] = (256, 1024),
        shard_cursors: bool = False,
        region_fraction: float | None = None,
        region_dwell_accesses: int = 3000,
        **kwargs,
    ) -> None:
        super().__init__(wss_pages, total_accesses, **kwargs)
        weights = [
            ("sequential", sequential_weight),
            ("stride", stride_weight),
            ("irregular", irregular_weight),
        ]
        if any(weight < 0 for _, weight in weights):
            raise ValueError("segment weights must be non-negative")
        if interleave < 1:
            raise ValueError(f"interleave must be >= 1, got {interleave}")
        self.segment_weights = weights
        self.seq_run_pages = seq_run_pages
        self.strides = strides
        self.stride_run_steps = stride_run_steps
        self.irregular_run_steps = irregular_run_steps
        if hot_fraction is not None and not 0.0 < hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
        self.irregular_skew = irregular_skew
        self.hot_fraction = hot_fraction
        self.interleave = interleave
        self.burst = burst
        self.phase_correlated = phase_correlated
        self.phase_accesses = phase_accesses
        self.shard_cursors = shard_cursors
        if region_fraction is not None and not 0.0 < region_fraction <= 1.0:
            raise ValueError(f"region_fraction must be in (0, 1], got {region_fraction}")
        self.region_fraction = region_fraction
        self.region_dwell_accesses = region_dwell_accesses

    @property
    def hot_pages(self) -> int:
        """Size of the hot (irregular-access) region in pages."""
        if self.hot_fraction is None:
            return self.wss_pages
        return max(1, int(self.wss_pages * self.hot_fraction))

    def _draw_phase(self, rng: SimRandom) -> tuple[str, int]:
        """A phase: the segment kind plus the stride all threads share."""
        return weighted_choice(rng, self.segment_weights), rng.choice(self.strides)

    def _segment_stream(
        self, rng: SimRandom, phase: list[tuple[str, int]] | None, thread: int
    ) -> Iterator[list[int]]:
        """One thread's infinite stream of pattern segments, one list each.

        With phase correlation, the segment *kind* (and the stride, for
        stride phases) is read from the shared ``phase`` cell instead of
        drawn independently — modelling BSP-style engines where all
        worker threads run the same operation (gather/apply/scatter, or
        the panels of a blocked matmul) at the same time.  The cell is
        read when the segment is pulled, so the puller must bring it to
        the segment's start first.

        With ``shard_cursors``, each thread owns a contiguous shard of
        the address space and its streaming segments *continue a
        persistent cursor* through that shard, wrapping around —
        modelling engines that re-scan the same arrays in the same
        order every iteration.  This repetition is what keeps swap
        layout aligned with access order across rounds; without it
        (random segment starts) offset-based readahead has nothing to
        work with.

        Irregular segments draw from the *hot region* — the first
        ``hot_pages`` of the address space, hash-scattered — modelling
        pointer-chasing over hot structures (vertex data, B-tree upper
        levels) while streaming segments sweep the cold bulk.

        Every segment is built whole from the same draws, in the same
        order, as emitting it page by page would make: runs are
        ``range`` slices and zipf targets are inverse-transform lookups
        on the same uniform draws ``SimRandom.zipf`` makes.
        """
        hot = self.hot_pages
        scatter = list(range(hot))
        rng.spawn("scatter").shuffle(scatter)
        pick = rng.spawn("pick")
        body = rng.spawn("body")
        if self.irregular_skew is not None:
            cdf = _zipf_cdf(hot, self.irregular_skew)
        if self.shard_cursors:
            shard_size = self.wss_pages // self.interleave
            shard_lo = thread * shard_size
            shard_hi = self.wss_pages if thread == self.interleave - 1 else shard_lo + shard_size
        else:
            shard_lo, shard_hi = 0, self.wss_pages
        # Region dwell: streaming concentrates on one window of the
        # shard at a time (a graph partition, a matmul panel pair) and
        # re-sweeps it before moving on.  The window fits in memory at
        # the 50% limit but not at 25% — the locality cliff behind the
        # Figure 11 columns.
        dwelling = self.region_fraction is not None
        if dwelling:
            region_size = max(32, int((shard_hi - shard_lo) * self.region_fraction))
        else:
            region_size = shard_hi - shard_lo
        region_lo = shard_lo
        region_hi = min(shard_hi, region_lo + region_size)
        dwell_left = self.region_dwell_accesses
        cursor = region_lo
        stride_phase = 0

        def walk(step: int, count: int) -> list[int]:
            """*count* cursor steps of *step* pages, a straight piece at a time.

            Per page, the cursor moves by *step*, wraps to the next
            stride phase of its region once at or past the region end,
            and after ``region_dwell_accesses`` pages moves to the next
            region.  Between those events the pages form a ``range``.
            """
            nonlocal cursor, stride_phase, dwell_left, region_lo, region_hi
            out: list[int] = []
            while count > 0:
                # Pages up to and including the one that wraps.
                if step > 0:
                    span = max(1, -(-(region_hi - cursor) // step))
                else:
                    span = 1 if cursor + step >= region_hi else count
                if dwelling and dwell_left < span:
                    span = max(1, dwell_left)
                if count < span:
                    span = count
                if step:
                    out.extend(range(cursor, cursor + span * step, step))
                else:
                    out.extend([cursor] * span)
                count -= span
                cursor += span * step
                if cursor >= region_hi:
                    stride_phase = (stride_phase + 1) % max(1, step)
                    cursor = region_lo + stride_phase
                dwell_left -= span
                if dwelling and dwell_left <= 0:
                    region_lo += region_size
                    if region_lo >= shard_hi:
                        region_lo = shard_lo
                    region_hi = min(shard_hi, region_lo + region_size)
                    cursor = region_lo
                    dwell_left = self.region_dwell_accesses
            return out

        while True:
            if phase is not None:
                kind, stride = phase[0]
            else:
                kind = weighted_choice(pick, self.segment_weights)
                stride = body.choice(self.strides)
            if kind == "sequential":
                length = body.randint(*self.seq_run_pages)
                if self.shard_cursors:
                    yield walk(1, length)
                else:
                    start = body.randrange(max(1, self.wss_pages - length))
                    yield list(range(start, start + length))
            elif kind == "stride":
                steps = body.randint(*self.stride_run_steps)
                if self.shard_cursors:
                    yield walk(stride, steps)
                else:
                    reach = abs(stride) * steps
                    start = body.randrange(max(1, self.wss_pages - reach))
                    if stride:
                        yield list(range(start, start + steps * stride, stride))
                    else:
                        yield [start] * steps
            else:
                steps = body.randint(*self.irregular_run_steps)
                if self.irregular_skew is None:
                    yield [body.randrange(hot) for _ in range(steps)]
                else:
                    last = hot - 1
                    draw = body.random
                    yield [scatter[min(bisect_left(cdf, draw()), last)] for _ in range(steps)]

    def _vpn_chunks(self, rng: SimRandom) -> Iterator[list[int]]:
        """The infinite vpn stream as a sequence of list chunks.

        :meth:`_columnar_vpn_blocks` packs these into arrays.  With
        phase correlation the phase changes after a drawn number of
        merged-stream accesses, and a thread reads it at each segment
        start; the interleaver reports where each segment starts, so
        the phase is advanced to exactly that access before the segment
        is drawn.
        """
        phase: list[tuple[str, int]] | None = None
        phase_rng = rng.spawn("phase")
        if self.phase_correlated:
            phase = [self._draw_phase(phase_rng)]
            next_change = max(1, phase_rng.randint(*self.phase_accesses))

            def advance_phase(position: int) -> None:
                nonlocal next_change
                while position >= next_change:
                    phase[0] = self._draw_phase(phase_rng)
                    next_change += max(1, phase_rng.randint(*self.phase_accesses))

        else:
            advance_phase = None
        sources = [
            self._segment_stream(rng.spawn(f"thread-{index}"), phase, index)
            for index in range(self.interleave)
        ]
        if len(sources) > 1:
            yield from burst_interleave(
                sources,
                rng.spawn("interleave"),
                self.burst[0],
                self.burst[1],
                on_segment=advance_phase,
            )
            return
        (source,) = sources
        position = 0
        while True:
            if advance_phase is not None:
                advance_phase(position)
            segment = next(source)
            yield segment
            position += len(segment)

    def _columnar_vpn_blocks(self, rng: SimRandom, block_size: int):
        buffered: list[int] = []
        for chunk in self._vpn_chunks(rng):
            buffered += chunk
            if len(buffered) >= block_size:
                yield np.array(buffered, dtype=np.int64)
                buffered = []
