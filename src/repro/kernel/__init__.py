"""Vectorized burst fault kernel.

The object engine (:class:`~repro.datapath.pipeline.FaultPipeline`
driven one access at a time) walks every page touch as a Python
object.  This package is the numpy-backed alternative behind
``MachineConfig(engine="vectorized")``: workloads feed the simulator
*columnar* access blocks (:mod:`repro.kernel.columnar`), whole resident
runs are classified with one array gather and applied as batched
page-table/LRU updates (:mod:`repro.kernel.vectorized`), and only the
accesses that actually fault drop back to the staged pipeline — which
stays in the tree as the bit-exact oracle the equivalence tests compare
against (see ``docs/kernel.md``).

The object engine reads the same columnar blocks, walked one access at
a time as plain tuples (:meth:`ColumnarCursor.tuples`).
"""

from repro.kernel.columnar import (
    DEFAULT_BLOCK_SIZE,
    AccessBlock,
    ColumnarCursor,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "AccessBlock",
    "ColumnarCursor",
]
