"""Synthetic workload traces standing in for the paper's applications."""

from repro.workloads.base import Workload, materialize_columns
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.mixer import burst_interleave, weighted_choice
from repro.workloads.numpy_matmul import NumpyMatmulWorkload
from repro.workloads.patterns import (
    RandomWorkload,
    SequentialWorkload,
    StrideWorkload,
    ZipfianWorkload,
)
from repro.workloads.phased import PhasedWorkload
from repro.workloads.powergraph import PowerGraphWorkload
from repro.workloads.segments import SegmentMixWorkload
from repro.workloads.voltdb import VoltDBWorkload

__all__ = [
    "MemcachedWorkload",
    "NumpyMatmulWorkload",
    "PhasedWorkload",
    "PowerGraphWorkload",
    "RandomWorkload",
    "SegmentMixWorkload",
    "SequentialWorkload",
    "StrideWorkload",
    "VoltDBWorkload",
    "Workload",
    "ZipfianWorkload",
    "burst_interleave",
    "materialize_columns",
    "weighted_choice",
]
