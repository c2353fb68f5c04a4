"""The per-access reference generator for :class:`SegmentMixWorkload`.

The workload emits its trace in per-segment and per-burst chunks; this
module keeps the original one-vpn-at-a-time generators (nested
per-thread segment streams, a per-access burst interleaver, a shared
phase cell updated after every access) as the oracle the chunked
streams are checked against.  :func:`oracle_accesses` clamps those vpns
and draws write flags one access at a time, as
:func:`workload_oracle.accesses` does for the other workloads, so the
columnar blocks of a workload must equal it access for access.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.sim.process import PageAccess
from repro.sim.rng import SimRandom
from repro.workloads.mixer import weighted_choice
from repro.workloads.segments import SegmentMixWorkload


def burst_interleave(
    streams: Sequence[Iterator[int]], rng: SimRandom, burst_min: int, burst_max: int
) -> Iterator[int]:
    """Interleave infinite *streams* in random bursts, one vpn at a time."""
    while True:
        stream = streams[rng.randrange(len(streams))]
        for _ in range(rng.randint(burst_min, burst_max)):
            yield next(stream)


def _irregular_target(workload, rng: SimRandom, scatter: list[int]) -> int:
    if workload.irregular_skew is None:
        return rng.randrange(len(scatter))
    return scatter[rng.zipf(len(scatter), workload.irregular_skew)]


def _draw_phase(workload, rng: SimRandom) -> tuple[str, int]:
    return weighted_choice(rng, workload.segment_weights), rng.choice(workload.strides)


def segment_stream(
    workload: SegmentMixWorkload,
    rng: SimRandom,
    phase: list[tuple[str, int]] | None,
    thread: int,
) -> Iterator[int]:
    """One thread's infinite vpn stream; the phase cell is read lazily
    at each segment start."""
    w = workload
    scatter = list(range(w.hot_pages))
    rng.spawn("scatter").shuffle(scatter)
    pick = rng.spawn("pick")
    body = rng.spawn("body")
    if w.shard_cursors:
        shard_size = w.wss_pages // w.interleave
        shard_lo = thread * shard_size
        shard_hi = w.wss_pages if thread == w.interleave - 1 else shard_lo + shard_size
    else:
        shard_lo, shard_hi = 0, w.wss_pages
    if w.region_fraction is not None:
        region_size = max(32, int((shard_hi - shard_lo) * w.region_fraction))
    else:
        region_size = shard_hi - shard_lo
    region_lo = shard_lo
    region_hi = min(shard_hi, region_lo + region_size)
    dwell_left = w.region_dwell_accesses
    cursor = region_lo
    stride_phase = 0

    def advance_region() -> None:
        nonlocal region_lo, region_hi, cursor, dwell_left
        region_lo = region_lo + region_size
        if region_lo >= shard_hi:
            region_lo = shard_lo
        region_hi = min(shard_hi, region_lo + region_size)
        cursor = region_lo
        dwell_left = w.region_dwell_accesses

    def step_cursor(step: int) -> int:
        nonlocal cursor, stride_phase, dwell_left
        value = cursor
        cursor += step
        if cursor >= region_hi:
            stride_phase = (stride_phase + 1) % max(1, step)
            cursor = region_lo + stride_phase
        dwell_left -= 1
        if dwell_left <= 0 and w.region_fraction is not None:
            advance_region()
        return value

    while True:
        if phase is not None:
            kind, stride = phase[0]
        else:
            kind = weighted_choice(pick, w.segment_weights)
            stride = body.choice(w.strides)
        if kind == "sequential":
            length = body.randint(*w.seq_run_pages)
            if w.shard_cursors:
                for _ in range(length):
                    yield step_cursor(1)
            else:
                start = body.randrange(max(1, w.wss_pages - length))
                for step in range(length):
                    yield start + step
        elif kind == "stride":
            steps = body.randint(*w.stride_run_steps)
            if w.shard_cursors:
                for _ in range(steps):
                    yield step_cursor(stride)
            else:
                reach = abs(stride) * steps
                start = body.randrange(max(1, w.wss_pages - reach))
                for step in range(steps):
                    yield start + step * stride
        else:
            steps = body.randint(*w.irregular_run_steps)
            for _ in range(steps):
                yield _irregular_target(w, body, scatter)


def oracle_vpn_stream(workload: SegmentMixWorkload, rng: SimRandom) -> Iterator[int]:
    """The workload's infinite vpn stream, one vpn at a time."""
    phase: list[tuple[str, int]] | None = None
    phase_rng = rng.spawn("phase")
    if workload.phase_correlated:
        phase = [_draw_phase(workload, phase_rng)]
    streams = [
        segment_stream(workload, rng.spawn(f"thread-{index}"), phase, index)
        for index in range(workload.interleave)
    ]
    if len(streams) == 1:
        merged: Iterator[int] = streams[0]
    else:
        merged = burst_interleave(
            streams, rng.spawn("interleave"), workload.burst[0], workload.burst[1]
        )
    if phase is None:
        yield from merged
        return
    remaining = phase_rng.randint(*workload.phase_accesses)
    for vpn in merged:
        yield vpn
        remaining -= 1
        if remaining <= 0:
            phase[0] = _draw_phase(workload, phase_rng)
            remaining = phase_rng.randint(*workload.phase_accesses)


def oracle_accesses(workload: SegmentMixWorkload) -> Iterator[PageAccess]:
    """The workload's trace, one access at a time over the oracle stream."""
    rng = SimRandom(workload.seed, f"workload/{workload.name}")
    write_rng = rng.spawn("writes")
    vpns = oracle_vpn_stream(workload, rng.spawn("vpns"))
    for _ in range(workload.total_accesses):
        vpn = next(vpns) % workload.wss_pages
        is_write = (
            workload.write_fraction > 0.0 and write_rng.random() < workload.write_fraction
        )
        yield PageAccess(vpn=vpn, is_write=is_write, think_ns=workload.think_ns)
