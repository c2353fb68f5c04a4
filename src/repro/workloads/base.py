"""Workload interface and trace utilities.

A workload is a reproducible generator of columnar access blocks
(:class:`~repro.kernel.AccessBlock`: ``vpn``, ``is_write`` and
``think_ns`` arrays) over a working set of ``wss_pages`` virtual pages.
Workloads carry the metadata the benchmarks need: how many accesses
they will emit, how many application-level *operations* those accesses
represent (for the throughput figures), and the think time separating
accesses (the compute/memory-touch ratio that turns fault latency into
application slowdown).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.sim.rng import SimRandom

__all__ = ["Workload", "materialize_columns", "rechunk"]


def rechunk(
    chunks: Iterable[tuple[np.ndarray, ...]], block_size: int
) -> Iterator[tuple[np.ndarray, ...]]:
    """Regroup chunks of parallel columns into *block_size*-long ones.

    Each chunk is a tuple of equal-length arrays; the yielded tuples
    concatenate to the same columns, every one *block_size* long except
    the last.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    buffered: list[tuple[np.ndarray, ...]] = []
    buffered_len = 0
    for chunk in chunks:
        buffered.append(chunk)
        buffered_len += len(chunk[0])
        while buffered_len >= block_size:
            merged = _merge(buffered)
            yield tuple(column[:block_size] for column in merged)
            rest = tuple(column[block_size:] for column in merged)
            buffered_len -= block_size
            buffered = [rest] if buffered_len else []
    if buffered_len:
        yield _merge(buffered)


def _merge(parts: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(columns) for columns in zip(*parts))


class Workload:
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

    def _columnar_vpn_blocks(
        self, rng: SimRandom, block_size: int
    ) -> Iterator[np.ndarray]:
        """The generator hook: yield vpn arrays (may be infinite).

        *rng* is the workload's labelled ``vpns`` stream.  The arrays
        are truncated to ``total_accesses``, clamped with ``%
        wss_pages`` and regrouped into blocks by :meth:`columnar_blocks`;
        *block_size* is only a hint for how much to draw at a time.
        Workloads whose write flags or think times are not drawn per
        access (KV-cache paging, open-loop arrivals, recorded traces)
        override :meth:`columnar_blocks` instead.
        """
        raise NotImplementedError(f"{type(self).__name__} generates no vpn stream")

    def columnar_blocks(self, block_size: int | None = None):
        """The trace as struct-of-arrays blocks (what both engines read).

        Yields :class:`~repro.kernel.AccessBlock` values of
        ``total_accesses`` accesses in all: the vpns of
        :meth:`_columnar_vpn_blocks` (drawn from the labelled ``vpns``
        stream, spawned after ``writes``), one write-flag ``random()``
        draw per access exactly when ``write_fraction > 0``, and the
        constant ``think_ns``.  Blocks are *block_size* long except the
        last.
        """
        from repro.kernel.columnar import DEFAULT_BLOCK_SIZE, AccessBlock

        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        rng = SimRandom(self.seed, f"workload/{self.name}")
        write_rng = rng.spawn("writes")
        native = self._columnar_vpn_blocks(rng.spawn("vpns"), block_size)
        wss = self.wss_pages
        think = self.think_ns
        wf = self.write_fraction

        def truncated() -> Iterator[tuple[np.ndarray]]:
            remaining = self.total_accesses
            for arr in native:
                if len(arr) > remaining:
                    arr = arr[:remaining]
                if len(arr):
                    yield (arr,)
                    remaining -= len(arr)
                if remaining <= 0:
                    return
            if remaining > 0:
                raise RuntimeError(
                    f"workload {self.name} exhausted after "
                    f"{self.total_accesses - remaining} accesses, "
                    f"expected {self.total_accesses}"
                )

        for (arr,) in rechunk(truncated(), block_size):
            n = len(arr)
            if wf > 0.0:
                writes = write_rng.random_array(n) < wf
            else:
                writes = np.zeros(n, dtype=np.bool_)
            yield AccessBlock(
                vpn=(arr % wss).astype(np.int64, copy=False),
                is_write=writes,
                think_ns=np.full(n, think, dtype=np.int64),
            )


def materialize_columns(workload: Workload):
    """The workload's full trace as ``(vpn, is_write, think_ns)`` arrays.

    Concatenates the workload's :meth:`~Workload.columnar_blocks`
    stream into three int64/bool/int64 arrays.  Workloads that already
    hold their columns (``ColumnarTraceWorkload``) are returned
    zero-copy via their ``columns()`` fast path.
    """
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
