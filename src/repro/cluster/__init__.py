"""Multi-server disaggregated memory: real nodes behind the slab map.

The cluster subsystem turns the slab allocator's abstract machine ids
into first-class :class:`MemoryServer` objects — per-server capacity,
queue pairs, fabric profiles, and page contents — governed by a
:class:`MemoryCluster` with failure injection and slab remap/re-fetch
recovery, fronted by the :class:`ClusterHostAgent`.

Entry points: ``cluster_config()`` + ``Machine.run_cluster`` for
simulation, ``repro scenario run`` (with ``--servers``) on the CLI, and
``repro perf --profile cluster`` for the CI-gated perf artifact.
"""

from repro.cluster.agent import ClusterHostAgent
from repro.cluster.cluster import FailureEvent, MemoryCluster
from repro.cluster.server import MemoryServer, page_fingerprint

__all__ = [
    "ClusterHostAgent",
    "FailureEvent",
    "MemoryCluster",
    "MemoryServer",
    "page_fingerprint",
]
