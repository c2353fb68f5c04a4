"""repro — reproduction of "Effectively Prefetching Remote Memory with Leap".

USENIX ATC 2020 (arXiv:1911.09829), Hasan Al Maruf & Mosharaf Chowdhury.

The package implements, in simulation:

* the **Leap** prefetcher (Boyer–Moore majority trend detection with an
  adaptive prefetch window), its eager cache eviction, and its lean
  remote-memory data path (:mod:`repro.core`),
* the kernel substrate it replaces — VMM, page cache, kswapd, cgroup
  limits, the legacy block-layer path (:mod:`repro.mem`,
  :mod:`repro.datapath`),
* the RDMA fabric, slab placement, and host/remote agents
  (:mod:`repro.rdma`), and the multi-server memory cluster with
  per-server queue pairs, failure injection, and slab remap recovery
  (:mod:`repro.cluster`),
* the baseline prefetchers (:mod:`repro.prefetchers`) and the paper's
  application workloads as synthetic traces (:mod:`repro.workloads`),
* and a benchmark harness regenerating every table and figure of the
  paper's evaluation (:mod:`repro.bench`).

Quickstart::

    from repro import leap_config, Machine, StrideWorkload, simulate

    machine = Machine(leap_config())
    workload = StrideWorkload(wss_pages=16384, total_accesses=50000)
    result = simulate(machine, {1: workload}, memory_fraction=0.5)
    print(result.recorder.summary())
"""

from repro.core.access_history import AccessHistory
from repro.core.prefetcher import LeapPrefetcher
from repro.core.sharded_tracker import ShardedLeapTracker
from repro.core.trend import find_trend
from repro.cluster import FailureEvent, MemoryCluster, MemoryServer
from repro.mem.vmm import AccessKind, AccessOutcome, VirtualMemoryManager
from repro.sim.machine import (
    Machine,
    MachineConfig,
    cluster_config,
    disk_config,
    infiniswap_config,
    leap_config,
)
from repro.sim.process import PageAccess
from repro.sim.run import RunResult, warmup_process
from repro.sim.scheduler import ConcurrentScheduler, run_processes, simulate_concurrent
from repro.sim.simulate import simulate
from repro.workloads.base import Workload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.numpy_matmul import NumpyMatmulWorkload
from repro.workloads.patterns import (
    RandomWorkload,
    SequentialWorkload,
    StrideWorkload,
    ZipfianWorkload,
)
from repro.workloads.powergraph import PowerGraphWorkload
from repro.workloads.voltdb import VoltDBWorkload

__version__ = "0.1.0"

__all__ = [
    "AccessHistory",
    "AccessKind",
    "AccessOutcome",
    "ConcurrentScheduler",
    "FailureEvent",
    "LeapPrefetcher",
    "Machine",
    "MachineConfig",
    "MemcachedWorkload",
    "MemoryCluster",
    "MemoryServer",
    "NumpyMatmulWorkload",
    "PageAccess",
    "PowerGraphWorkload",
    "RandomWorkload",
    "RunResult",
    "SequentialWorkload",
    "ShardedLeapTracker",
    "StrideWorkload",
    "VirtualMemoryManager",
    "VoltDBWorkload",
    "Workload",
    "ZipfianWorkload",
    "cluster_config",
    "disk_config",
    "find_trend",
    "infiniswap_config",
    "leap_config",
    "run_processes",
    "simulate",
    "simulate_concurrent",
    "warmup_process",
]
