"""Host and remote agents for the remote I/O interface (§4.4–4.5).

The *host agent* exposes ``read_page`` / ``write_page`` to the data
path.  It maps slabs across remote machines with power-of-two-choices
placement, keeps one in-memory replica per slab (the paper's default
fault-tolerance policy), maintains a per-core RDMA dispatch queue, and
fails over reads to the replica when a remote machine dies.

The *remote agent* is the memory donor on the far machine: it only
accounts capacity and liveness — page contents are never materialized
by the simulator.
"""

from __future__ import annotations

from repro.obs.trace import NULL_TRACER
from repro.rdma.network import RdmaFabric
from repro.rdma.qp import DispatchQueue, Submission
from repro.rdma.slab import PageLocation, Slab, SlabAllocator
from repro.sim.rng import SimRandom

__all__ = ["RemoteAgent", "HostAgent", "RemotePageLostError"]


class RemotePageLostError(RuntimeError):
    """A page's slab and its replica are both on dead machines."""


class RemoteAgent:
    """Memory donor on a remote machine."""

    def __init__(self, machine_id: int, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_pages}")
        self.machine_id = machine_id
        self.capacity_pages = capacity_pages
        self.reserved_pages = 0
        self.alive = True

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self.reserved_pages

    def can_host_slab(self, slab_pages: int) -> bool:
        return self.alive and self.free_pages >= slab_pages

    def reserve_slab(self, slab_pages: int) -> None:
        if not self.can_host_slab(slab_pages):
            raise RuntimeError(
                f"machine {self.machine_id} cannot host a {slab_pages}-page slab"
            )
        self.reserved_pages += slab_pages

    def release_slab(self, slab_pages: int) -> None:
        if slab_pages > self.reserved_pages:
            raise ValueError("releasing more pages than reserved")
        self.reserved_pages -= slab_pages

    def fail(self) -> None:
        """Simulate the machine crashing; its slabs become unreadable."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True


class HostAgent:
    """The local machine's gateway to the disaggregated memory pool."""

    def __init__(
        self,
        fabric: RdmaFabric,
        remote_agents: list[RemoteAgent],
        rng: SimRandom,
        n_cores: int = 8,
        slab_capacity_pages: int = 4096,
        replication: bool = True,
    ) -> None:
        if not remote_agents:
            raise ValueError("need at least one remote agent")
        if replication and len(remote_agents) < 2:
            raise ValueError("replication requires at least two remote machines")
        if n_cores <= 0:
            raise ValueError(f"n_cores must be positive, got {n_cores}")
        self.fabric = fabric
        self.remote_agents = {agent.machine_id: agent for agent in remote_agents}
        self._rng = rng
        #: Trace sink; the owning Machine re-points this at its own
        #: collector right after construction (see repro.obs.trace).
        self.tracer = NULL_TRACER
        self.queues = [DispatchQueue(core) for core in range(n_cores)]
        self.allocator = SlabAllocator(slab_capacity_pages)
        self.replication = replication
        self.reads = 0
        self.writes = 0
        self.failovers = 0

    # -- placement ---------------------------------------------------------
    def _placement_load(self, agent: RemoteAgent) -> float:
        """Load signal power-of-two choices minimizes (lower is better).

        The flat host agent only sees reserved capacity; the cluster
        agent overrides this with *live* server load (utilization plus
        queue-pair backlog), which is the §4.5 feedback loop that keeps
        a hot server from accumulating new slabs.
        """
        return -agent.free_pages

    def _pick_machine(self, exclude: set[int]) -> RemoteAgent:
        """Power-of-two-choices among alive machines with slab headroom."""
        slab_pages = self.allocator.slab_capacity_pages
        candidates = [
            agent
            for agent in self.remote_agents.values()
            if agent.machine_id not in exclude and agent.can_host_slab(slab_pages)
        ]
        if not candidates:
            raise RemotePageLostError("no remote machine can host a new slab")
        if len(candidates) == 1:
            return candidates[0]
        first, second = self._rng.sample(candidates, 2)
        return (
            first
            if self._placement_load(first) <= self._placement_load(second)
            else second
        )

    def _ensure_open_slab(self) -> None:
        if not self.allocator.needs_new_slab():
            return
        slab_pages = self.allocator.slab_capacity_pages
        primary = self._pick_machine(exclude=set())
        replica_id: int | None = None
        if self.replication:
            replica = self._pick_machine(exclude={primary.machine_id})
            replica.reserve_slab(slab_pages)
            replica_id = replica.machine_id
        primary.reserve_slab(slab_pages)
        self.allocator.open_slab(primary.machine_id, replica_id)

    def place_page(self, key: object) -> PageLocation:
        """Assign a remote slot to *key* (idempotent)."""
        location = self.allocator.location_of(key)
        if location is not None:
            return location
        self._ensure_open_slab()
        return self.allocator.place_page(key)

    # -- data movement -------------------------------------------------------
    def _queue_for(self, core: int) -> DispatchQueue:
        return self.queues[core % len(self.queues)]

    def _readable_machine(self, slab: Slab) -> RemoteAgent:
        primary = self.remote_agents[slab.machine_id]
        if primary.alive:
            return primary
        if slab.replica_machine_id is not None:
            replica = self.remote_agents[slab.replica_machine_id]
            if replica.alive:
                self.failovers += 1
                return replica
        raise RemotePageLostError(
            f"slab {slab.slab_id}: primary machine {slab.machine_id} dead "
            f"and no live replica"
        )

    def resolve_server(self, key: object) -> int | None:
        """Pre-dispatch resolution of *key*'s serving machine.

        The flat host agent resolves internally (all machines share one
        latency model), so it returns None and the data path skips the
        lookup; the cluster agent returns the live server so dispatch
        can charge that server's queue pair.
        """
        return None

    def release_page(self, key: object) -> bool:
        """The page faulted back in; reclaim its remote slot for reuse."""
        return self.allocator.release(key)

    def read_page(
        self, key: object, now: int, core: int = 0, server: int | None = None
    ) -> Submission:
        """One-sided RDMA read of *key*'s page; returns queue timings.

        *server* is an optional pre-resolved target (see
        :meth:`resolve_server`); the flat agent ignores it.
        """
        location = self.place_page(key)
        slab = self.allocator.slab_of(location)
        self._readable_machine(slab)  # raises if the page is lost
        self.reads += 1
        return self._queue_for(core).submit(
            now,
            service_ns=self.fabric.service_time_ns(),
            fabric_ns=self.fabric.fabric_latency_ns(),
        )

    def write_page(
        self, key: object, now: int, core: int = 0, server: int | None = None
    ) -> Submission:
        """RDMA write of *key*'s page to its slab (and replica if any)."""
        location = self.place_page(key)
        slab = self.allocator.slab_of(location)
        self.writes += 1
        queue = self._queue_for(core)
        submission = queue.submit(
            now,
            service_ns=self.fabric.service_time_ns(),
            fabric_ns=self.fabric.fabric_latency_ns(),
        )
        if self.replication and slab.replica_machine_id is not None:
            replica_sub = queue.submit(
                submission.submitted,
                service_ns=self.fabric.service_time_ns(),
                fabric_ns=self.fabric.fabric_latency_ns(),
            )
            # The write completes when both copies have landed; the
            # primary's submission is this call's own, so it is updated
            # in place.
            if replica_sub.completed > submission.completed:
                submission.completed = replica_sub.completed
        return submission

    # -- introspection -------------------------------------------------------
    def machine_loads(self) -> dict[int, int]:
        """Reserved pages per remote machine (for balance tests)."""
        return {
            machine_id: agent.reserved_pages
            for machine_id, agent in self.remote_agents.items()
        }

    def dispatch_stats(self) -> dict[int, dict]:
        """Per-core dispatch-queue accounting (cores that saw traffic).

        The host-side queue-depth view that complements the fault
        pipeline's completion-queue counters: operations dispatched,
        queueing delays, and the peak backlog a submission found ahead
        of it.
        """
        return {
            queue.core: {
                "ops": queue.stats.operations,
                "mean_delay_ns": round(queue.stats.mean_queueing_delay, 1),
                "peak_backlog_ns": queue.stats.peak_backlog_ns,
            }
            for queue in self.queues
            if queue.stats.operations
        }
