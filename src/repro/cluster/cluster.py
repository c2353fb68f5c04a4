"""The memory cluster: M servers, a disk archive, failure injection.

:class:`MemoryCluster` owns the remote side of the disaggregated
memory system: the :class:`MemoryServer` fleet (each with its own
queue pairs and fabric profile), and the *disk archive* — Infiniswap's
asynchronous disk backup that every remote write is mirrored to, and
the re-fetch source when a crash destroys both in-memory copies of a
slab.

Failure injection is expressed as :class:`FailureEvent` timelines fed
to :meth:`repro.sim.machine.Machine.run_cluster`: at the event's
simulated time the server dies (its contents vanish) and the host
agent immediately remaps every slab that lost a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.server import MemoryServer
from repro.rdma.network import RdmaFabric
from repro.sim.rng import SimRandom

__all__ = ["FailureEvent", "MemoryCluster"]


@dataclass(frozen=True, slots=True)
class FailureEvent:
    """One liveness transition in a cluster run's failure plan.

    ``time_ns`` is measured from the start of the *measured* phase
    (after warmup), so a plan means the same thing at any warmup size.
    """

    time_ns: int
    server_id: int
    action: str = "fail"  # "fail" | "recover"

    def __post_init__(self) -> None:
        if self.action not in ("fail", "recover"):
            raise ValueError(f"unknown failure action {self.action!r}")
        if self.time_ns < 0:
            raise ValueError(f"event time must be >= 0, got {self.time_ns}")


class MemoryCluster:
    """A fleet of memory servers plus the durable disk archive."""

    def __init__(self, servers: list[MemoryServer]) -> None:
        if not servers:
            raise ValueError("a cluster needs at least one memory server")
        self.servers: dict[int, MemoryServer] = {
            server.machine_id: server for server in servers
        }
        if len(self.servers) != len(servers):
            raise ValueError("duplicate server ids in cluster")
        #: Disk backup of page fingerprints, written through on every
        #: remote write (never on the critical path in the model).
        self.archive: dict[object, int] = {}

    @classmethod
    def build(
        cls,
        rng: SimRandom,
        base_fabric: RdmaFabric,
        n_servers: int,
        capacity_pages: int,
        qps_per_server: int = 2,
        latency_spread: float = 0.0,
    ) -> "MemoryCluster":
        """Build *n_servers* nodes with seeded per-server heterogeneity.

        ``latency_spread`` widens each server's fabric median by a
        deterministic factor in ``[1 - spread, 1 + spread]`` — a rack
        is never perfectly uniform, and skewed-placement scenarios need
        servers that are actually different.
        """
        if n_servers <= 0:
            raise ValueError(f"need at least one server, got {n_servers}")
        if not 0.0 <= latency_spread < 1.0:
            raise ValueError(
                f"latency_spread must be in [0, 1), got {latency_spread}"
            )
        servers = []
        for server_id in range(n_servers):
            scale = 1.0
            if latency_spread:
                scale += latency_spread * rng.uniform(-1.0, 1.0)
            fabric = base_fabric.variant(
                rng.spawn(f"server{server_id}"), median_scale=scale
            )
            servers.append(
                MemoryServer(
                    machine_id=server_id,
                    capacity_pages=capacity_pages,
                    fabric=fabric,
                    n_qps=qps_per_server,
                )
            )
        return cls(servers)

    # -- liveness ----------------------------------------------------------
    def fail_server(self, server_id: int) -> MemoryServer:
        server = self.servers[server_id]
        server.fail()
        return server

    def recover_server(self, server_id: int) -> MemoryServer:
        server = self.servers[server_id]
        server.recover()
        return server

    @property
    def alive_servers(self) -> list[MemoryServer]:
        return [server for server in self.servers.values() if server.alive]

    # -- introspection -----------------------------------------------------
    def total_capacity_pages(self) -> int:
        return sum(server.capacity_pages for server in self.servers.values())

    def total_reserved_pages(self) -> int:
        return sum(server.reserved_pages for server in self.servers.values())

    def utilizations(self) -> dict[int, float]:
        return {
            server_id: server.utilization
            for server_id, server in self.servers.items()
        }

    def server_stats(self) -> dict[int, dict]:
        return {
            server_id: server.stats_row()
            for server_id, server in sorted(self.servers.items())
        }
