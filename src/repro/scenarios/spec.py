"""Declarative multi-tenant traffic scenarios.

The paper's argument is distributional: Leap wins or loses depending on
the *access-pattern mix* hitting the fault path (§2.3's interleaved
processes, Figures 2–3, 11, 13).  A :class:`Scenario` declares such a
mix as data — a tenant list with per-tenant workloads and footprints,
Zipf-skewed tenant popularity, open-loop arrival schedules with burst
phases, a local-memory limit schedule, and (for cluster runs) a
failure timeline — so realistic traffic can be named, versioned,
swept, and replayed instead of hand-assembled per experiment.

Everything serializes to/from plain dicts (JSON-shaped, strictly), so
scenarios can live in files, CI configs, and bug reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterator

import numpy as np

from repro.codec import Spec
from repro.control.spec import BalancerSpec, ControlSpec, GovernorSpec
from repro.kernel.columnar import AccessBlock
from repro.sim.rng import SimRandom, derive_seed
from repro.trace.format import open_trace_v2
from repro.workloads.base import Workload
from repro.workloads.kvcache import KVCacheWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.numpy_matmul import NumpyMatmulWorkload
from repro.workloads.patterns import (
    RandomWorkload,
    SequentialWorkload,
    StrideWorkload,
    ZipfianWorkload,
)
from repro.workloads.phased import PhasedWorkload
from repro.workloads.powergraph import PowerGraphWorkload
from repro.workloads.voltdb import VoltDBWorkload

__all__ = [
    "WORKLOAD_KINDS",
    "ArrivalSpec",
    "BalancerSpec",
    "ControlSpec",
    "FailureSpec",
    "GovernorSpec",
    "MemoryPhase",
    "OpenLoopWorkload",
    "Scenario",
    "TenantSpec",
    "build_tenant_workloads",
]

#: Workload kinds a tenant may declare.  ``trace`` replays a recorded
#: v2 trace file (``params={"path": ...}``, see :mod:`repro.trace`).
WORKLOAD_KINDS = {
    "sequential": SequentialWorkload,
    "stride": StrideWorkload,
    "random": RandomWorkload,
    "zipfian": ZipfianWorkload,
    "powergraph": PowerGraphWorkload,
    "numpy": NumpyMatmulWorkload,
    "voltdb": VoltDBWorkload,
    "memcached": MemcachedWorkload,
    "phased": PhasedWorkload,
    "kvcache": KVCacheWorkload,
}


@dataclass(frozen=True)
class ArrivalSpec(Spec):
    """An open-loop arrival schedule with burst phases.

    Inter-access gaps are generated independently of service times
    (open loop): calm phases draw gaps around ``think_ns``, burst
    phases around ``burst_think_ns``, with phase lengths drawn from
    the given access-count ranges.  ``jitter`` draws exponential gaps
    around the phase mean (a Poisson-like arrival stream); without it
    the gaps are fixed.
    """

    think_ns: int = 1_000
    burst_think_ns: int = 100
    burst_accesses: tuple[int, int] = (64, 256)
    calm_accesses: tuple[int, int] = (512, 2_048)
    jitter: bool = True

    def __post_init__(self) -> None:
        for low, high in (self.burst_accesses, self.calm_accesses):
            if not 1 <= low <= high:
                raise ValueError(
                    f"phase access range must satisfy 1 <= low <= high, "
                    f"got ({low}, {high})"
                )
        if self.think_ns < 0 or self.burst_think_ns < 0:
            raise ValueError("think times must be non-negative")

    def gaps(self, rng: SimRandom) -> Iterator[int]:
        """Infinite stream of inter-access gaps (ns)."""
        expovariate = rng.expovariate
        while True:
            for mean, span in (
                (self.think_ns, self.calm_accesses),
                (self.burst_think_ns, self.burst_accesses),
            ):
                count = rng.randint(*span)
                if self.jitter and mean > 0:
                    rate = 1.0 / mean
                    for _ in range(count):
                        yield max(0, int(round(expovariate(rate))))
                else:
                    yield from repeat(mean, count)


@dataclass(frozen=True)
class TenantSpec(Spec):
    """One tenant: a workload, its footprint, and its traffic shape.

    ``accesses=None`` means the tenant receives a share of the
    scenario's total access budget (weighted by tenant popularity);
    an explicit count opts out of the shared budget.  ``weight``
    scales the tenant's popularity share on top of the scenario's
    Zipf-by-rank skew.
    """

    name: str
    workload: str
    wss_pages: int
    accesses: int | None = None
    weight: float = 1.0
    params: dict = field(default_factory=dict)
    arrival: ArrivalSpec | None = None
    write_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_KINDS and self.workload != "trace":
            raise ValueError(
                f"tenant {self.name!r}: unknown workload {self.workload!r} "
                f"(choose from {sorted(WORKLOAD_KINDS)} or 'trace')"
            )
        if self.wss_pages <= 0:
            raise ValueError(f"tenant {self.name!r}: wss_pages must be positive")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(
                f"tenant {self.name!r}: write_fraction must be in [0, 1]"
            )


@dataclass(frozen=True)
class MemoryPhase(Spec):
    """One step of the local-memory limit schedule.

    At ``at_ms`` of measured simulated time, every tenant's cgroup
    limit is resized to ``memory_fraction`` of its working set —
    shrinking reclaims down to the new limit immediately, the way a
    ``memory.max`` write does.
    """

    at_ms: float
    memory_fraction: float

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError(f"phase time must be >= 0, got {self.at_ms}")
        if not 0.0 < self.memory_fraction <= 1.0:
            raise ValueError(
                f"memory_fraction must be in (0, 1], got {self.memory_fraction}"
            )


@dataclass(frozen=True)
class FailureSpec(Spec):
    """One memory-server liveness transition in the scenario timeline."""

    at_ms: float
    server_id: int
    action: str = "fail"  # "fail" | "recover"

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError(f"failure time must be >= 0, got {self.at_ms}")
        if self.action not in ("fail", "recover"):
            raise ValueError(f"unknown failure action {self.action!r}")


@dataclass(frozen=True)
class Scenario(Spec):
    """A named, declarative multi-tenant traffic mix."""

    name: str
    description: str
    tenants: tuple[TenantSpec, ...]
    #: Access budget split across tenants with ``accesses=None``.
    total_accesses: int = 24_000
    memory_fraction: float = 0.5
    memory_schedule: tuple[MemoryPhase, ...] = ()
    #: Zipf skew over tenant *rank* (listed order); None = equal shares.
    popularity_skew: float | None = None
    #: Prefetcher to run with; None = the engine default (leap),
    #: overridable per sweep point.
    prefetcher: str | None = None
    failures: tuple[FailureSpec, ...] = ()
    allow_migration: bool = True
    #: Optional online control plane (adaptive prefetcher governor
    #: and/or tenant memory balancer); None = static policies.
    control: ControlSpec | None = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError(f"scenario {self.name!r} needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario {self.name!r}: duplicate tenant names")
        if self.total_accesses <= 0:
            raise ValueError("total_accesses must be positive")
        if not 0.0 < self.memory_fraction <= 1.0:
            raise ValueError(
                f"memory_fraction must be in (0, 1], got {self.memory_fraction}"
            )
        if self.popularity_skew is not None and self.popularity_skew <= 0:
            raise ValueError("popularity_skew must be positive")

    @property
    def requires_cluster(self) -> bool:
        """Failure timelines only mean something on the cluster engine."""
        return bool(self.failures)

    def tenant_shares(self) -> dict[str, float]:
        """Normalized popularity share per tenant (Zipf by rank × weight)."""
        raw: dict[str, float] = {}
        for rank, tenant in enumerate(self.tenants, start=1):
            zipf = 1.0 if self.popularity_skew is None else rank ** -self.popularity_skew
            raw[tenant.name] = zipf * tenant.weight
        total = sum(raw.values())
        return {name: value / total for name, value in raw.items()}

    def tenant_accesses(self) -> dict[str, int]:
        """Access count per tenant after splitting the shared budget.

        Trace tenants replay their recording in full — their length is
        fixed by the trace file — so they neither consume nor dilute
        the shared budget (their count is reported as 0 here).
        """
        shares = self.tenant_shares()
        budgeted = [
            t for t in self.tenants if t.accesses is None and t.workload != "trace"
        ]
        counts: dict[str, int] = {
            t.name: (0 if t.workload == "trace" else t.accesses)
            for t in self.tenants
            if t not in budgeted
        }
        if budgeted:
            pool = sum(shares[t.name] for t in budgeted)
            for tenant in budgeted:
                counts[tenant.name] = max(
                    1, int(self.total_accesses * shares[tenant.name] / pool)
                )
        return counts


class OpenLoopWorkload(Workload):
    """Wrap a workload's page stream in an open-loop arrival schedule.

    The inner workload decides *which* pages are touched; the
    :class:`ArrivalSpec` decides *when* — gaps are drawn independently
    of service latency, so a burst keeps arriving even while the fault
    path is slow (the open-loop property that makes tail latency
    honest under overload).
    """

    def __init__(self, inner: Workload, arrival: ArrivalSpec, seed: int) -> None:
        super().__init__(
            wss_pages=inner.wss_pages,
            total_accesses=inner.total_accesses,
            seed=seed,
            think_ns=inner.think_ns,
            write_fraction=inner.write_fraction,
        )
        self.inner = inner
        self.arrival = arrival
        self.name = f"open-loop/{inner.name}"

    def columnar_blocks(self, block_size: int | None = None) -> Iterator[AccessBlock]:
        """The inner workload's blocks with arrival gaps as think times.

        Gaps come from one :meth:`ArrivalSpec.gaps` stream, drawn a
        block's length at a time, so the think column does not depend
        on the block size.
        """
        gaps = self.arrival.gaps(SimRandom(self.seed, f"arrivals/{self.name}"))
        for block in self.inner.columnar_blocks(block_size):
            n = len(block)
            yield AccessBlock(
                vpn=block.vpn,
                is_write=block.is_write,
                think_ns=np.fromiter(islice(gaps, n), np.int64, count=n),
            )


def _build_workload(tenant: TenantSpec, accesses: int, seed: int) -> Workload:
    if tenant.workload == "trace":
        try:
            path = tenant.params["path"]
        except KeyError:
            raise ValueError(
                f"tenant {tenant.name!r}: trace workloads need params['path']"
            ) from None
        inner: Workload = open_trace_v2(path)
    else:
        cls = WORKLOAD_KINDS[tenant.workload]
        kwargs = dict(tenant.params)
        if tenant.write_fraction > 0.0:
            # The application traces bake their own write mixes in;
            # only the primitive patterns take an explicit fraction.
            kwargs["write_fraction"] = tenant.write_fraction
        try:
            inner = cls(
                wss_pages=tenant.wss_pages,
                total_accesses=accesses,
                seed=seed,
                **kwargs,
            )
        except TypeError as error:
            raise ValueError(
                f"tenant {tenant.name!r}: bad params for workload "
                f"{tenant.workload!r}: {error}"
            ) from None
    if tenant.arrival is not None:
        return OpenLoopWorkload(inner, tenant.arrival, seed=seed)
    return inner


def build_tenant_workloads(
    scenario: Scenario, seed: int
) -> tuple[dict[int, Workload], dict[int, str]]:
    """Materialize a scenario's tenants as (pid → workload, pid → name).

    Each tenant's workload seed derives from the run seed plus the
    scenario and tenant names, so streams are independent and a
    scenario means the same trace at any position in a sweep.
    """
    counts = scenario.tenant_accesses()
    workloads: dict[int, Workload] = {}
    names: dict[int, str] = {}
    for index, tenant in enumerate(scenario.tenants):
        pid = index + 1
        tenant_seed = derive_seed(seed, f"scenario/{scenario.name}/{tenant.name}") & (
            2**31 - 1
        )
        workloads[pid] = _build_workload(tenant, counts[tenant.name], tenant_seed)
        names[pid] = tenant.name
    return workloads, names
