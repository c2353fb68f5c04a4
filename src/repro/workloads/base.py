"""Workload interface and trace utilities.

A workload is a reproducible generator of :class:`PageAccess` items
over a working set of ``wss_pages`` virtual pages.  Workloads carry the
metadata the benchmarks need: how many accesses they will emit, how
many application-level *operations* those accesses represent (for the
throughput figures), and the think time separating accesses (the
compute/memory-touch ratio that turns fault latency into application
slowdown).
"""

from __future__ import annotations

import abc
from typing import Iterator

from repro.sim.process import PageAccess
from repro.sim.rng import SimRandom

__all__ = ["Workload", "materialize_columns", "materialize_trace"]


class Workload(abc.ABC):
    """A finite, reproducible page-access trace."""

    name: str

    def __init__(
        self,
        wss_pages: int,
        total_accesses: int,
        seed: int = 42,
        think_ns: int = 1_000,
        write_fraction: float = 0.0,
    ) -> None:
        if wss_pages <= 0:
            raise ValueError(f"wss_pages must be positive, got {wss_pages}")
        if total_accesses <= 0:
            raise ValueError(f"total_accesses must be positive, got {total_accesses}")
        if think_ns < 0:
            raise ValueError(f"think_ns must be non-negative, got {think_ns}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError(f"write_fraction must be in [0, 1], got {write_fraction}")
        self.wss_pages = wss_pages
        self.total_accesses = total_accesses
        self.seed = seed
        self.think_ns = think_ns
        self.write_fraction = write_fraction

    #: Page accesses per application-level operation (1 = every access
    #: is its own op); throughput workloads override this.
    accesses_per_op: int = 1

    @property
    def total_ops(self) -> int:
        return self.total_accesses // self.accesses_per_op

    @abc.abstractmethod
    def _vpn_stream(self, rng: SimRandom) -> Iterator[int]:
        """Yield virtual page numbers (may be infinite; it is truncated)."""

    def _columnar_vpn_blocks(self, rng: SimRandom, block_size: int):
        """Native vectorized vpn generation hook (may be infinite).

        Patterns with a closed array form (sequential sweeps, stride
        sweeps, inverse-transform zipfian) override this to yield numpy
        int64 arrays concatenating to exactly the :meth:`_vpn_stream`
        sequence — same RNG stream, same draw order, so the emitted
        trace is bit-identical.  The default returns None, which makes
        :meth:`columnar_blocks` fall back to packing the object stream.
        """
        return None

    def columnar_blocks(self, block_size: int | None = None):
        """The trace as struct-of-arrays blocks (what both engines read).

        Yields :class:`~repro.kernel.AccessBlock` values whose columns
        concatenate to exactly the :meth:`accesses` sequence: the same
        labelled RNG streams are spawned in the same order ("writes"
        before "vpns"), write flags are drawn one ``random()`` per
        emitted access exactly when ``write_fraction > 0``, and vpns are
        clamped with the same ``% wss_pages``.  Blocks are *block_size*
        long except the last.
        """
        from repro.kernel.columnar import DEFAULT_BLOCK_SIZE, AccessBlock, pack_blocks

        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        rng = SimRandom(self.seed, f"workload/{self.name}")
        write_rng = rng.spawn("writes")
        native = self._columnar_vpn_blocks(rng.spawn("vpns"), block_size)
        if native is None:
            yield from pack_blocks(self.accesses(), block_size)
            return
        import numpy as np

        wss = self.wss_pages
        think = self.think_ns
        wf = self.write_fraction

        def make_block(arr: "np.ndarray") -> AccessBlock:
            n = len(arr)
            if wf > 0.0:
                writes = write_rng.random_array(n) < wf
            else:
                writes = np.zeros(n, dtype=np.bool_)
            return AccessBlock(
                vpn=(arr % wss).astype(np.int64, copy=False),
                is_write=writes,
                think_ns=np.full(n, think, dtype=np.int64),
            )

        def truncated() -> Iterator["np.ndarray"]:
            remaining = self.total_accesses
            for arr in native:
                if len(arr) > remaining:
                    arr = arr[:remaining]
                if len(arr):
                    yield arr
                    remaining -= len(arr)
                if remaining <= 0:
                    return
            if remaining > 0:
                raise RuntimeError(
                    f"workload {self.name} exhausted after "
                    f"{self.total_accesses - remaining} accesses, "
                    f"expected {self.total_accesses}"
                )

        buffered: list = []
        buffered_len = 0
        for arr in truncated():
            buffered.append(arr)
            buffered_len += len(arr)
            while buffered_len >= block_size:
                merged = np.concatenate(buffered) if len(buffered) > 1 else buffered[0]
                yield make_block(merged[:block_size])
                rest = merged[block_size:]
                buffered = [rest] if len(rest) else []
                buffered_len = len(rest)
        if buffered_len:
            merged = np.concatenate(buffered) if len(buffered) > 1 else buffered[0]
            yield make_block(merged)

    def accesses(self) -> Iterator[PageAccess]:
        """The trace: ``total_accesses`` of :class:`PageAccess`."""
        rng = SimRandom(self.seed, f"workload/{self.name}")
        write_rng = rng.spawn("writes")
        emitted = 0
        for vpn in self._vpn_stream(rng.spawn("vpns")):
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


def materialize_trace(workload: Workload) -> list[PageAccess]:
    """Fully expand a workload (for analysis such as Figure 3).

    Object form — one :class:`PageAccess` per touch.  Analysis paths
    that only need arrays should prefer :func:`materialize_columns`,
    which never builds the per-access objects.
    """
    return list(workload.accesses())


def materialize_columns(workload: Workload):
    """The workload's full trace as ``(vpn, is_write, think_ns)`` arrays.

    The columnar twin of :func:`materialize_trace`: concatenates the
    workload's :meth:`~Workload.columnar_blocks` stream (bit-identical
    to :meth:`~Workload.accesses` by contract) into three int64/bool
    arrays without a per-access object detour.  Workloads that already
    hold their columns (``ColumnarTraceWorkload``) are returned
    zero-copy via their ``columns()`` fast path.
    """
    import numpy as np

    columns = getattr(workload, "columns", None)
    if columns is not None:
        return columns()
    vpn_parts = []
    write_parts = []
    think_parts = []
    for block in workload.columnar_blocks():
        vpn_parts.append(block.vpn)
        write_parts.append(block.is_write)
        think_parts.append(block.think_ns)
    if not vpn_parts:
        raise ValueError(f"workload {workload.name!r} emitted no accesses")
    return (
        np.concatenate(vpn_parts),
        np.concatenate(write_parts),
        np.concatenate(think_parts),
    )
