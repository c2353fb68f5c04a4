"""Stream mixing utilities.

Real applications fault from many threads at once, so the kernel sees
an *interleaving* of per-thread patterns — the paper's central reason
why strict consecutive-pattern detectors break (§2.3: "An application
can also have multiple, inter-leaved stride patterns — for example,
due to multiple concurrent threads").  Threads do not alternate
perfectly, though; they run in bursts between scheduling points.
:func:`burst_interleave` reproduces that: it picks a stream, lets it
emit a burst, then switches.  Streams are interleaved a segment slice
at a time rather than a page at a time, so a burst costs two draws and
a few list slices whatever its length.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.sim.rng import SimRandom

__all__ = ["burst_interleave", "weighted_choice"]


def weighted_choice(rng: SimRandom, weights: Sequence[tuple[str, float]]) -> str:
    """Pick a label proportionally to its weight."""
    total = sum(weight for _, weight in weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    pick = rng.random() * total
    acc = 0.0
    for label, weight in weights:
        acc += weight
        if pick < acc:
            return label
    return weights[-1][0]


def burst_interleave(
    sources: Sequence[Iterator[list[int]]],
    rng: SimRandom,
    burst_min: int = 4,
    burst_max: int = 16,
    on_segment: Callable[[int], None] | None = None,
) -> Iterator[list[int]]:
    """Interleave infinite *segment* sources in random bursts.

    Each source yields its stream one segment (a list of vpns) at a
    time.  Each turn draws a source uniformly and a burst length
    uniformly in ``[burst_min, burst_max]`` — the same two draws per
    burst as interleaving vpn by vpn — and emits the burst as one or
    more chunks: slices of the source's pending segment, pulling its
    next segment whenever the current one runs out.  Before each pull,
    ``on_segment(position)`` is called with the merged-stream index of
    that segment's first vpn, so shared state a source reads at a
    segment start (a phase) can be brought to exactly that point.
    """
    if not sources:
        raise ValueError("need at least one stream")
    if not 1 <= burst_min <= burst_max:
        raise ValueError(f"need 1 <= burst_min <= burst_max, got {burst_min}, {burst_max}")
    count = len(sources)
    pending: list[list[int]] = [[] for _ in sources]
    offsets = [0] * count
    position = 0
    while True:
        index = rng.randrange(count)
        want = rng.randint(burst_min, burst_max)
        segment, offset = pending[index], offsets[index]
        while want:
            if offset == len(segment):
                if on_segment is not None:
                    on_segment(position)
                segment, offset = next(sources[index]), 0
                continue
            take = min(want, len(segment) - offset)
            yield segment[offset : offset + take]
            offset += take
            want -= take
            position += take
        pending[index], offsets[index] = segment, offset
