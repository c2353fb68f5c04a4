"""Columnar access streams: the data layout of the vectorized engine.

A trace is represented as a sequence of :class:`AccessBlock` values —
struct-of-arrays blocks holding ``vpn`` (int64), ``is_write`` (bool)
and ``think_ns`` (int64) columns — instead of one
:class:`~repro.sim.process.PageAccess` object per touch.  Workloads
produce blocks via :meth:`~repro.workloads.base.Workload.columnar_blocks`
(every workload generates its columns natively), and
:class:`ColumnarCursor` is the consuming side: a read head over the
block stream that the vectorized burst kernel slices whole resident
runs from.  The object engine reads the same cursor as a stream of
plain ``(vpn, is_write, think_ns)`` tuples (:meth:`ColumnarCursor.tuples`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "AccessBlock",
    "ColumnarCursor",
]

#: Default accesses per block.  Big enough that per-block Python
#: overhead amortizes to noise, small enough that a block of three
#: int64/bool columns stays comfortably inside L2.
DEFAULT_BLOCK_SIZE = 8192

#: Accesses converted to Python objects at a time by
#: :meth:`ColumnarCursor.tuples`; bounds the per-driver lists it holds.
TUPLE_SLICE = 1024


@dataclass(frozen=True, slots=True)
class AccessBlock:
    """A struct-of-arrays slab of consecutive page accesses.

    Columns are parallel numpy arrays of one common length: ``vpn``
    (int64 virtual page numbers), ``is_write`` (bool), and ``think_ns``
    (int64 compute time preceding each touch).  Blocks are immutable
    value objects; the kernel only ever reads slices of them.
    """

    vpn: np.ndarray
    is_write: np.ndarray
    think_ns: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.vpn) == len(self.is_write) == len(self.think_ns)):
            raise ValueError(
                "AccessBlock columns must share one length, got "
                f"{len(self.vpn)}/{len(self.is_write)}/{len(self.think_ns)}"
            )

    def __len__(self) -> int:
        return len(self.vpn)


class ColumnarCursor:
    """A consuming read head over a stream of :class:`AccessBlock`.

    One cursor backs one :class:`~repro.sim.process.ProcessDriver` in
    either engine.  The kernel reads the *tail* of the current
    block (``tail()``) to classify a run in one gather, then commits
    consumption with :meth:`advance`.  Exhaustion (``ensure() ==
    False``) is the columnar equivalent of the object trace iterator
    returning ``None``.
    """

    __slots__ = ("_blocks", "_vpn", "_write", "_think", "_offset", "_exhausted")

    def __init__(self, blocks: Iterable[AccessBlock]) -> None:
        self._blocks = iter(blocks)
        self._vpn: np.ndarray | None = None
        self._write: np.ndarray | None = None
        self._think: np.ndarray | None = None
        self._offset = 0
        self._exhausted = False

    def ensure(self) -> bool:
        """Make at least one unconsumed access available.

        Returns False exactly once the underlying block stream is
        fully consumed (empty blocks are skipped transparently).
        """
        if self._exhausted:
            return False
        vpn = self._vpn
        while vpn is None or self._offset >= len(vpn):
            block = next(self._blocks, None)
            if block is None:
                self._exhausted = True
                self._vpn = self._write = self._think = None
                return False
            if len(block) == 0:
                continue
            self._vpn = vpn = block.vpn
            self._write = block.is_write
            self._think = block.think_ns
            self._offset = 0
        return True

    def tail(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the unconsumed remainder of the current block.

        Call :meth:`ensure` first; the views are (vpn, is_write,
        think_ns) and stay valid until the next :meth:`ensure` that
        crosses a block boundary.
        """
        offset = self._offset
        return (
            self._vpn[offset:],
            self._write[offset:],
            self._think[offset:],
        )

    def advance(self, count: int) -> None:
        """Commit consumption of the first *count* accesses of the tail."""
        self._offset += count

    def tuples(self) -> Iterator[tuple[int, bool, int]]:
        """Consume the rest of the stream as ``(vpn, is_write, think_ns)``.

        Each block is fetched through :meth:`ensure`, converted with one
        ``tolist()`` per column and walked as a C-level ``zip``, so no
        Python object beyond the tuple is built per access.
        """
        return chain.from_iterable(self._zipped_blocks())

    def _zipped_blocks(self) -> Iterator[Iterator[tuple[int, bool, int]]]:
        while self.ensure():
            vpn, is_write, think_ns = (column[:TUPLE_SLICE] for column in self.tail())
            self.advance(len(vpn))
            yield zip(vpn.tolist(), is_write.tolist(), think_ns.tolist())
