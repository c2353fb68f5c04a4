"""KV-cache paging: an LLM-inference-shaped access trace.

Serving a language model from a paged KV cache produces a distinctive
memory pattern that mixes all three regimes the paper's prefetcher must
tell apart.  Each request cycle:

1. **Hot prefix** — the shared system-prompt / prefix-cache pages are
   re-read sequentially (perfectly prefetchable, high reuse);
2. **Sequential append** — decode writes new KV pages into a ring over
   the remaining working set (a pure sequential *write* stream, the
   readahead-friendly case with dirty-page pressure);
3. **Recency-biased lookups** — attention reads back previously
   written cache pages, skewed toward recent tokens
   (``offset = ⌊avail · u^recency_skew⌋`` back from the append head —
   mostly short backward jumps, a tail of long ones).

The lookup draws are the only randomness, taken from one labelled
stream in batches (``SimRandom.random_array``), and everything else is
closed-form arithmetic — so :meth:`columnar_blocks` generates the
columns with arange/power/mod and no per-access Python.  This is the
flagship trace family for ``repro trace``: capture it at millions of
accesses, replay it zero-copy, and the analyzer shows the three
regimes as distinct regions.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.sim.rng import SimRandom
from repro.workloads.base import Workload, rechunk

__all__ = ["KVCacheWorkload"]


class KVCacheWorkload(Workload):
    """Hot-prefix + sequential-append + recency-lookup paging trace."""

    name = "kvcache"

    def __init__(
        self,
        wss_pages: int,
        total_accesses: int,
        seed: int = 42,
        hot_fraction: float = 0.125,
        append_pages: int = 16,
        lookups_per_append: int = 48,
        recency_skew: float = 2.0,
        **kwargs,
    ) -> None:
        super().__init__(wss_pages, total_accesses, seed=seed, **kwargs)
        if not 0.0 < hot_fraction < 1.0:
            raise ValueError(f"hot_fraction must be in (0, 1), got {hot_fraction}")
        if append_pages <= 0:
            raise ValueError(f"append_pages must be positive, got {append_pages}")
        if lookups_per_append < 0:
            raise ValueError("lookups_per_append must be >= 0")
        if recency_skew <= 0:
            raise ValueError(f"recency_skew must be positive, got {recency_skew}")
        hot_pages = max(1, int(wss_pages * hot_fraction))
        ring_pages = wss_pages - hot_pages
        if ring_pages < 1:
            raise ValueError(
                f"wss_pages={wss_pages} too small for hot_fraction={hot_fraction}"
            )
        self.hot_pages = hot_pages
        self.ring_pages = ring_pages
        self.append_pages = append_pages
        self.lookups_per_append = lookups_per_append
        self.recency_skew = recency_skew

    def _segments(self) -> Iterator[tuple]:
        """The deterministic request-cycle skeleton.

        Yields ``("seq", start, length, is_write)`` runs and
        ``("lookup", count, avail, written)`` markers (the consumer
        makes the draws).  ``written`` counts appended pages
        monotonically; the append ring occupies ``[hot_pages,
        wss_pages)``.
        """
        hot = self.hot_pages
        ring = self.ring_pages
        written = 0
        while True:
            yield ("seq", 0, hot, False)
            remaining = self.append_pages
            while remaining:
                head = written % ring
                run = min(remaining, ring - head)
                yield ("seq", hot + head, run, True)
                written += run
                remaining -= run
            if self.lookups_per_append:
                yield ("lookup", self.lookups_per_append, min(written, ring), written)

    def columnar_blocks(self, block_size: int | None = None):
        """Columnar generation: arange runs + batched lookup draws.

        Appends write and every other access reads, so the write flags
        come from the segment skeleton rather than per-access draws;
        the lookup offsets are ``⌊avail · u^recency_skew⌋`` on uniform
        draws batched through ``SimRandom.random_array``.
        """
        from repro.kernel.columnar import DEFAULT_BLOCK_SIZE, AccessBlock

        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        rng = SimRandom(self.seed, f"workload/{self.name}")
        draw = rng.spawn("lookups")
        hot = self.hot_pages
        ring = self.ring_pages
        skew = self.recency_skew
        think = self.think_ns

        def columns() -> Iterator[tuple[np.ndarray, np.ndarray]]:
            remaining = self.total_accesses
            for segment in self._segments():
                if segment[0] == "seq":
                    _, start, length, is_write = segment
                    take = min(length, remaining)
                    vpn = np.arange(start, start + take, dtype=np.int64)
                    writes = np.full(take, is_write, dtype=np.bool_)
                else:
                    _, count, avail, written = segment
                    take = min(count, remaining)
                    u = draw.random_array(take)
                    offsets = np.minimum(
                        (avail * u**skew).astype(np.int64), avail - 1
                    )
                    vpn = hot + (written - 1 - offsets) % ring
                    writes = np.zeros(take, dtype=np.bool_)
                yield vpn, writes
                remaining -= take
                if remaining <= 0:
                    return

        for vpn, writes in rechunk(columns(), block_size):
            yield AccessBlock(
                vpn=vpn,
                is_write=writes,
                think_ns=np.full(len(vpn), think, dtype=np.int64),
            )
