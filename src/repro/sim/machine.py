"""Host machine assembly: configuration in, ready-to-run VMM out.

A :class:`MachineConfig` picks one option per axis — data path, backing
medium, prefetcher, eviction policy — exactly the axes the paper's
evaluation varies:

====================  =========================================
Paper system           Config
====================  =========================================
Linux swap to disk     ``legacy`` path, ``hdd``/``ssd`` medium,
                       ``readahead``, ``lazy`` eviction
Infiniswap (D-VMM)     ``legacy``, ``remote``, ``readahead``, ``lazy``
D-VMM + Leap           ``lean``, ``remote``, ``leap``, ``eager``
Fig. 8a breakdown      ``lean`` with prefetcher/eviction toggled
Fig. 8b / 9 / 10       ``legacy`` + disk with prefetcher swapped
====================  =========================================

Everything is seeded from ``config.seed`` through labelled RNG streams,
so any configuration is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.sanitize import install_sanitizer, sanitize_enabled
from repro.core.sharded_tracker import ShardedLeapTracker
from repro.datapath.backends import DiskBackend, IOBackend, RemoteBackend
from repro.datapath.base import DataPath
from repro.datapath.block_layer import LegacyBlockPath
from repro.datapath.lean_path import LeanLeapPath
from repro.mem.page_cache import CacheStats, EagerFifoPolicy, LazyLRUPolicy, PageCache
from repro.mem.reclaim import KswapdReclaimer
from repro.mem.vmm import ProcessMemory, VirtualMemoryManager
from repro.metrics.counters import PrefetchMetrics
from repro.metrics.latency import LatencyRecorder
from repro.obs.names import CLUSTER_FAIL, CLUSTER_RECOVER, TRACK_MACHINE
from repro.obs.trace import TraceCollector
from repro.prefetchers.base import NoopPrefetcher, Prefetcher
from repro.prefetchers.ghb import GHBPrefetcher
from repro.prefetchers.next_n_line import NextNLinePrefetcher
from repro.prefetchers.readahead import ReadAheadPrefetcher
from repro.prefetchers.stride import StridePrefetcher
from repro.rdma.agent import HostAgent, RemoteAgent
from repro.rdma.completion import CompletionQueue
from repro.rdma.network import RdmaFabric
from repro.sim.rng import SimRandom
from repro.sim.units import ms
from repro.storage.backends import HDDMedium, SSDMedium

__all__ = [
    "MachineConfig",
    "Machine",
    "cluster_config",
    "disk_config",
    "infiniswap_config",
    "leap_config",
]

DATA_PATHS = ("legacy", "lean")
MEDIA = ("remote", "cluster", "hdd", "ssd")
PREFETCHERS = ("readahead", "stride", "next-n-line", "ghb", "leap", "none")
EVICTIONS = ("lazy", "eager")
ENGINES = ("object", "vectorized")


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Full description of one simulated host."""

    seed: int = 42
    #: Burst execution engine: ``object`` walks the columnar access
    #: blocks one ``(vpn, is_write, think_ns)`` tuple at a time through
    #: the staged pipeline; ``vectorized`` hands drivers the blocks
    #: themselves and classifies whole resident runs as array
    #: operations (:mod:`repro.kernel`).  Both produce bit-identical
    #: simulated metrics.  The ``REPRO_SANITIZE=1`` environment
    #: variable layers per-burst structural invariant checks
    #: (:mod:`repro.analysis.sanitize`) on top of either engine.
    engine: str = "object"
    data_path: str = "legacy"
    medium: str = "remote"
    prefetcher: str = "readahead"
    eviction: str = "lazy"
    cache_capacity_pages: int | None = None
    n_cores: int = 8
    remote_machines: int = 4
    remote_capacity_pages: int = 1 << 20
    slab_pages: int = 4096
    replication: bool = True
    #: Queue pairs per memory server (``cluster`` medium only): the
    #: remote-side dispatch parallelism before ops serialize.
    server_qps: int = 2
    #: Seeded per-server fabric-median spread in [0, 1) — 0.15 means a
    #: server can be up to 15% faster or slower than the testbed median.
    server_latency_spread: float = 0.0
    history_size: int = 32
    n_split: int = 2
    max_prefetch_window: int = 8
    #: Submit each prefetch window through the data path as one batched
    #: sweep (one software-stage traversal per window) instead of one
    #: full traversal per page.
    batch_prefetch: bool = True
    #: Per-core cap on reads in flight on the fault pipeline's
    #: completion queue; a saturated core backpressures prefetch rounds
    #: instead of queueing without bound.  None = unbounded (demand
    #: reads are never refused either way).
    qp_depth_limit: int | None = None
    readahead_window: int = 8
    next_n_lines: int = 8
    stride_max_degree: int = 8
    #: GHB (delta-correlation) sizing: the buffer must span a pattern's
    #: repeat distance for temporal correlation to fire.
    ghb_buffer_size: int = 4096
    ghb_degree: int = 4
    kswapd_period_ns: int = ms(50)
    kswapd_batch: int = 64

    def validate(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.data_path not in DATA_PATHS:
            raise ValueError(f"unknown data path {self.data_path!r}")
        if self.medium not in MEDIA:
            raise ValueError(f"unknown medium {self.medium!r}")
        if self.prefetcher not in PREFETCHERS:
            raise ValueError(f"unknown prefetcher {self.prefetcher!r}")
        if self.eviction not in EVICTIONS:
            raise ValueError(f"unknown eviction policy {self.eviction!r}")
        if self.qp_depth_limit is not None and self.qp_depth_limit < 1:
            raise ValueError(
                f"qp_depth_limit must be >= 1 or None, got {self.qp_depth_limit}"
            )

    def with_overrides(self, **changes) -> "MachineConfig":
        return replace(self, **changes)


def disk_config(medium: str = "hdd", **overrides) -> MachineConfig:
    """Linux paging to a local disk (the paper's `Disk` baseline)."""
    return MachineConfig(
        data_path="legacy", medium=medium, prefetcher="readahead", eviction="lazy"
    ).with_overrides(**overrides)


def infiniswap_config(**overrides) -> MachineConfig:
    """Disaggregated VMM on the default kernel data path (D-VMM)."""
    return MachineConfig(
        data_path="legacy", medium="remote", prefetcher="readahead", eviction="lazy"
    ).with_overrides(**overrides)


def leap_config(**overrides) -> MachineConfig:
    """Disaggregated VMM with the full Leap stack (D-VMM + Leap)."""
    return MachineConfig(
        data_path="lean", medium="remote", prefetcher="leap", eviction="eager"
    ).with_overrides(**overrides)


def cluster_config(**overrides) -> MachineConfig:
    """The Leap stack over a multi-server memory cluster.

    Like :func:`leap_config`, but remote machine ids are real
    :class:`~repro.cluster.MemoryServer` nodes with their own queue
    pairs, latency profiles, contents, and failure/recovery behaviour.
    Slabs default to 1024 pages (vs the flat default of 4096) so
    placement exercises more than one server even at smoke scale.
    """
    return MachineConfig(
        data_path="lean",
        medium="cluster",
        prefetcher="leap",
        eviction="eager",
        slab_pages=1024,
        server_latency_spread=0.15,
    ).with_overrides(**overrides)


class Machine:
    """A host machine built from a :class:`MachineConfig`."""

    def __init__(self, config: MachineConfig) -> None:
        config.validate()
        self.config = config
        root = SimRandom(config.seed, "machine")
        # One trace sink for every layer of this machine; disabled by
        # default, so uninstrumented runs pay one attribute check per
        # emit site (see repro.obs.trace).
        self.tracer = TraceCollector()
        self.host_agent: HostAgent | None = None
        self.cluster = None
        self.backend = self._build_backend(config, root)
        if self.host_agent is not None:
            self.host_agent.tracer = self.tracer
        self.data_path = self._build_path(config, root)
        policy = LazyLRUPolicy() if config.eviction == "lazy" else EagerFifoPolicy()
        self.cache = PageCache(policy, capacity_pages=config.cache_capacity_pages)
        self.reclaimer = KswapdReclaimer(
            self.cache,
            scan_period_ns=config.kswapd_period_ns,
            scan_batch=config.kswapd_batch,
        )
        self.prefetcher = self._build_prefetcher(config)
        self.metrics = PrefetchMetrics()
        self.recorder = LatencyRecorder()
        self.vmm = VirtualMemoryManager(
            data_path=self.data_path,
            cache=self.cache,
            reclaimer=self.reclaimer,
            prefetcher=self.prefetcher,
            metrics=self.metrics,
            recorder=self.recorder,
            batch_prefetch=config.batch_prefetch,
            completion_queue=CompletionQueue(
                depth_limit=config.qp_depth_limit, tracer=self.tracer
            ),
            tracer=self.tracer,
        )
        if sanitize_enabled():
            # Swap in the invariant-checking pipeline before any access
            # runs; it is read-only, so simulated metrics stay
            # byte-identical to the plain run (see analysis/sanitize).
            install_sanitizer(self.vmm)
        self._next_core = 0

    # -- component factories -------------------------------------------------
    def _build_backend(self, config: MachineConfig, root: SimRandom) -> IOBackend:
        if config.medium == "remote":
            fabric = RdmaFabric(root.spawn("fabric"))
            agents = [
                RemoteAgent(machine_id=i, capacity_pages=config.remote_capacity_pages)
                for i in range(config.remote_machines)
            ]
            self.host_agent = HostAgent(
                fabric,
                agents,
                root.spawn("placement"),
                n_cores=config.n_cores,
                slab_capacity_pages=config.slab_pages,
                replication=config.replication,
            )
            return RemoteBackend(self.host_agent)
        if config.medium == "cluster":
            from repro.cluster import ClusterHostAgent, MemoryCluster

            fabric = RdmaFabric(root.spawn("fabric"))
            self.cluster = MemoryCluster.build(
                root.spawn("cluster"),
                fabric,
                n_servers=config.remote_machines,
                capacity_pages=config.remote_capacity_pages,
                qps_per_server=config.server_qps,
                latency_spread=config.server_latency_spread,
            )
            self.host_agent = ClusterHostAgent(
                self.cluster,
                root.spawn("placement"),
                n_cores=config.n_cores,
                slab_capacity_pages=config.slab_pages,
                replication=config.replication,
                host_fabric=fabric,
            )
            return RemoteBackend(self.host_agent)
        if config.medium == "hdd":
            return DiskBackend(HDDMedium(root.spawn("hdd")))
        if config.medium == "ssd":
            return DiskBackend(SSDMedium(root.spawn("ssd")))
        raise ValueError(f"unknown medium {config.medium!r}")

    def _build_path(self, config: MachineConfig, root: SimRandom) -> DataPath:
        rng = root.spawn("datapath")
        if config.data_path == "legacy":
            return LegacyBlockPath(self.backend, rng)
        return LeanLeapPath(self.backend, rng)

    def _build_prefetcher(self, config: MachineConfig) -> Prefetcher:
        if config.prefetcher == "none":
            return NoopPrefetcher()
        if config.prefetcher == "leap":
            return ShardedLeapTracker(
                history_size=config.history_size,
                n_split=config.n_split,
                max_window=config.max_prefetch_window,
            )
        if config.prefetcher == "readahead":
            return ReadAheadPrefetcher(self.backend, max_window=config.readahead_window)
        if config.prefetcher == "stride":
            return StridePrefetcher(max_degree=config.stride_max_degree)
        if config.prefetcher == "next-n-line":
            return NextNLinePrefetcher(n_lines=config.next_n_lines)
        if config.prefetcher == "ghb":
            return GHBPrefetcher(
                buffer_size=config.ghb_buffer_size, degree=config.ghb_degree
            )
        raise ValueError(f"unknown prefetcher {config.prefetcher!r}")

    def build_prefetcher(self, name: str) -> Prefetcher:
        """A fresh prefetcher of *name*, sized by this machine's config.

        The factory behind the control plane's policy swaps: the
        governor asks for candidates by name and installs them behind
        the same :class:`~repro.prefetchers.base.Prefetcher` interface.
        """
        return self._build_prefetcher(self.config.with_overrides(prefetcher=name))

    def install_prefetcher(self, prefetcher: Prefetcher) -> None:
        """Replace the machine's prefetcher (e.g. with a governed
        router) before processes run; the page cache, metrics, and
        data path are untouched."""
        self.prefetcher = prefetcher
        self.vmm.prefetcher = prefetcher

    # -- process management -------------------------------------------------
    def add_process(
        self, pid: int, wss_pages: int, limit_pages: int, core: int | None = None
    ) -> ProcessMemory:
        """Register a process with *wss_pages* of address space and a
        cgroup limit of *limit_pages* resident pages.

        Without an explicit *core* the process is pinned round-robin
        across the machine's cores.
        """
        if core is None:
            core = self._next_core % self.config.n_cores
            self._next_core += 1
        process = self.vmm.register_process(
            pid,
            limit_pages=limit_pages,
            address_space_pages=wss_pages,
            core=core,
        )
        self.prefetcher.on_process_placed(pid, core)
        return process

    def migrate_process(self, pid: int, new_core: int) -> None:
        """Move *pid* to *new_core*: reroutes its dispatch-queue traffic
        and split-merges any per-core sharded prefetcher state."""
        if not 0 <= new_core < self.config.n_cores:
            raise ValueError(
                f"core {new_core} outside this machine's {self.config.n_cores} cores"
            )
        process = self.vmm.process(pid)
        old_core = process.core
        if old_core == new_core:
            return
        process.core = new_core
        self.prefetcher.on_process_migrated(pid, old_core, new_core)

    def set_memory_limit(self, pid: int, limit_pages: int, now: int = 0) -> int:
        """Resize *pid*'s cgroup limit mid-run, reclaiming down to it.

        The hook behind scenario local-memory limit schedules
        (:mod:`repro.scenarios`): a timeline event calls this at its
        simulated time.  Returns the number of pages reclaimed.
        """
        return self.vmm.resize_limit(pid, limit_pages, now)

    # -- execution -----------------------------------------------------------
    def run_concurrent(
        self,
        workloads,
        cores: int | None = None,
        memory_fraction: float = 0.5,
        warmup: bool = True,
        max_total_accesses: int | None = None,
        allow_migration: bool = True,
        timeline=None,
        epoch_ns=None,
        on_epoch=None,
    ):
        """Run *workloads* (pid → workload) concurrently across *cores*.

        The multi-tenant entry point (Figure 13): every process gets a
        ``memory_fraction`` cgroup limit and a home core, and the
        event-driven scheduler interleaves them against this machine's
        one page cache, backend, and fabric — with core contention and
        (optionally) migration.  See
        :func:`repro.sim.scheduler.simulate_concurrent`.
        """
        from repro.sim.scheduler import simulate_concurrent

        return simulate_concurrent(
            self,
            workloads,
            cores=cores,
            memory_fraction=memory_fraction,
            warmup=warmup,
            max_total_accesses=max_total_accesses,
            allow_migration=allow_migration,
            timeline=timeline,
            epoch_ns=epoch_ns,
            on_epoch=on_epoch,
        )

    # -- cluster management ----------------------------------------------------
    def _require_cluster(self):
        if self.cluster is None:
            raise RuntimeError(
                "this machine has no memory cluster; build it with "
                "cluster_config() (medium='cluster')"
            )
        return self.cluster

    def fail_server(self, server_id: int) -> int:
        """Crash one memory server and remap every slab it hosted.

        The server's contents vanish (remote memory is volatile); the
        host agent immediately promotes replicas, re-fetches
        unreplicated slabs from the disk archive, and re-replicates —
        deterministically under the machine's seed.  Returns the number
        of slabs remapped.
        """
        cluster = self._require_cluster()
        cluster.fail_server(server_id)
        return self.host_agent.recover_from_failure(server_id)

    def recover_server(self, server_id: int) -> None:
        """Bring a crashed server back (empty: contents were lost)."""
        self._require_cluster().recover_server(server_id)

    def run_cluster(self, workloads, *, failure_plan=(), timeline=None, **options):
        """Run *workloads* across N app cores and M memory servers.

        The cluster entry point: :meth:`run_concurrent` (which takes
        *options*) on a machine built with ``cluster_config()``, plus
        *failure_plan* (:class:`repro.cluster.FailureEvent` entries,
        times relative to the measured phase), which crashes and
        recovers memory servers mid-run.  A ``fail`` event atomically
        fails the server and remaps every slab it hosted (replica
        promotion / archive re-fetch / re-replication), so the run
        completes with contents intact whenever a copy survived.
        Failure events follow the caller's *timeline* (e.g. scenario
        memory-limit phases), so at equal times the timeline's
        callbacks fire first.
        """
        self._require_cluster()
        merged = list(timeline or ())
        merged += [(event.time_ns, self._failure_callback(event)) for event in failure_plan]
        return self.run_concurrent(workloads, timeline=merged, **options)

    def _failure_callback(self, event):
        """Timeline callback for one failure-plan *event*.

        Marks the injection at its exact simulated time in a recording
        (``fail_server`` itself has no ``now`` — the timeline owns the
        clock here).
        """
        server_id = event.server_id

        def fire(at: int):
            if event.action == "fail":
                if self.tracer.enabled:
                    self.tracer.instant(CLUSTER_FAIL, TRACK_MACHINE, at, server_id)
                return self.fail_server(server_id)
            if self.tracer.enabled:
                self.tracer.instant(CLUSTER_RECOVER, TRACK_MACHINE, at, server_id)
            return self.recover_server(server_id)

        return fire

    # -- measurement management ------------------------------------------------
    def reset_measurements(self) -> None:
        """Fresh metrics after a warmup phase (state is kept, stats dropped)."""
        self.metrics = PrefetchMetrics()
        self.recorder = LatencyRecorder()
        self.vmm.metrics = self.metrics
        self.vmm.recorder = self.recorder
        self.cache.stats = CacheStats()
        self.vmm.completion_queue.reset_stats()
        self.prefetcher.reset()
        # Same collector object (every layer holds a reference), fresh
        # buffers: a recording covers exactly the measured phase.
        self.tracer.reset()
