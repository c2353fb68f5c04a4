"""The four benchmark workloads and the reduction of a run to simulated metrics.

Each workload is built and run only through the simulator's public entry
points (``Machine.run_concurrent``, ``simulate``, ``run_scenario``), with
the repository's own builders (``application_workloads``,
``capture_workload``/``open_trace_v2``) and reducers (``percentiles_us``,
``aggregate_hit_rate``, ``CompletionQueue.stats()``, ``recovery_stats()``).
Why each workload exists is recorded in ``BENCHMARK.json`` and
``perfbench/README.md``.

A *build* makes everything a repeat needs (machine, workloads, captured
trace) and is timed as set-up; the returned :class:`Prepared` runs it once.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from unittest import mock

from repro.bench.prefetch import application_workloads
from repro.bench.runner import BenchScale
from repro.mem.vmm import PREFETCH_HIT_KINDS, AccessKind
from repro.perf.profile import FIG13_SCALE_TIER, TRACE_PROFILE_TIER, percentiles_us
from repro.provenance import spec_hash
from repro.scenarios import runner as scenario_runner
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import aggregate_hit_rate, run_scenario
from repro.sim.machine import Machine, leap_config
from repro.sim.simulate import simulate
from repro.trace.capture import capture_workload
from repro.trace.format import open_trace_v2
from repro.workloads.kvcache import KVCacheWorkload
from repro.workloads.patterns import ZipfianWorkload
from repro.workloads.phased import PhasedWorkload

__all__ = ["NAMES", "Outcome", "Prepared", "build", "check", "digest", "simulated_metrics"]

#: Simulated cores of the multi-tenant workloads (not host threads).
SIM_CORES = 4


@dataclass
class Outcome:
    """What one run produced: the machine and its result."""

    machine: Machine
    result: object
    #: ``run_scenario`` payload (cluster-failover only).
    payload: dict | None = None


@dataclass
class Prepared:
    """A built repeat: ``run()`` executes it once."""

    run: Callable[[], Outcome]
    #: Accesses the run must complete.
    expected_accesses: int
    #: Wall time of named build stages (trace capture/open), seconds.
    stages: dict[str, float] = field(default_factory=dict)


def _scaled(count: int, scale: float) -> int:
    return max(1, int(count * scale))


def _total(workloads: dict) -> int:
    return sum(workload.total_accesses for workload in workloads.values())


def _resident_hot(seed: int, scale: float, engine: str | None, workdir: Path) -> Prepared:
    # The fig13 scale tier's four hot-set tenants at 4x its accesses.
    wss = FIG13_SCALE_TIER["wss_pages"]
    accesses = _scaled(4 * FIG13_SCALE_TIER["accesses"], scale)
    loop_pages = int(wss * 0.8)
    permloop = {"kind": "permloop", "loop_pages": loop_pages}
    workloads = {
        1: ZipfianWorkload(wss, accesses, skew=1.3, seed=seed),
        2: ZipfianWorkload(wss, accesses, skew=1.15, seed=seed + 1),
        3: PhasedWorkload(wss, accesses, phases=[permloop], seed=seed + 2),
        4: PhasedWorkload(
            wss, accesses, phases=[{"kind": "zipfian", "skew": 1.2}, permloop], seed=seed + 3
        ),
    }
    machine = Machine(leap_config(seed=seed, engine=engine or "vectorized"))

    def run() -> Outcome:
        result = machine.run_concurrent(
            workloads, cores=SIM_CORES, memory_fraction=FIG13_SCALE_TIER["memory_fraction"]
        )
        return Outcome(machine, result)

    return Prepared(run, _total(workloads))


def _paper_apps(seed: int, scale: float, engine: str | None, workdir: Path) -> Prepared:
    bench_scale = BenchScale(wss_pages=8192, accesses=_scaled(75_000, scale), seed=seed)
    workloads = {
        pid: workload
        for pid, workload in enumerate(application_workloads(bench_scale).values(), start=1)
    }
    machine = Machine(leap_config(seed=seed, engine=engine or "vectorized"))

    def run() -> Outcome:
        result = machine.run_concurrent(workloads, cores=SIM_CORES, memory_fraction=0.5)
        return Outcome(machine, result)

    return Prepared(run, _total(workloads))


def _kvcache_trace_replay(
    seed: int, scale: float, engine: str | None, workdir: Path
) -> Prepared:
    tier = TRACE_PROFILE_TIER
    workload = KVCacheWorkload(
        wss_pages=tier["wss_pages"],
        total_accesses=_scaled(2 * tier["accesses"], scale),
        seed=seed,
        hot_fraction=tier["hot_fraction"],
        append_pages=tier["append_pages"],
        lookups_per_append=tier["lookups_per_append"],
    )
    path = workdir / f"kvcache-{seed}.rtrace"
    started = time.perf_counter()
    capture_workload(workload, path)
    captured = time.perf_counter()
    trace = open_trace_v2(path)
    opened = time.perf_counter()
    machine = Machine(leap_config(seed=seed, engine=engine or "vectorized"))

    def run() -> Outcome:
        result = simulate(machine, {1: trace}, memory_fraction=tier["memory_fraction"])
        return Outcome(machine, result)

    stages = {"capture_s": captured - started, "open_s": opened - captured}
    return Prepared(run, trace.total_accesses, stages)


def _cluster_failover(seed: int, scale: float, engine: str | None, workdir: Path) -> Prepared:
    scenario = get_scenario(
        "failover-under-load", wss_pages=4096, total_accesses=_scaled(240_000, scale)
    )

    def run() -> Outcome:
        # run_scenario builds and discards its machine; its one call to
        # the public Machine.run_cluster hands the machine and result over.
        captured = {}
        run_cluster = Machine.run_cluster

        def capturing_run_cluster(machine, *args, **kwargs):
            captured["result"] = run_cluster(machine, *args, **kwargs)
            captured["machine"] = machine
            return captured["result"]

        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(Machine, "run_cluster", capturing_run_cluster))
            if engine is not None:
                config = scenario_runner.cluster_config
                stack.enter_context(
                    mock.patch.object(
                        scenario_runner, "cluster_config", lambda **kw: config(engine=engine, **kw)
                    )
                )
            payload = run_scenario(scenario, seed=seed, cores=SIM_CORES, servers=4)
        return Outcome(captured["machine"], captured["result"], payload)

    return Prepared(run, sum(scenario.tenant_accesses().values()))


_BUILDERS = {
    "resident-hot": _resident_hot,
    "paper-apps": _paper_apps,
    "kvcache-trace-replay": _kvcache_trace_replay,
    "cluster-failover": _cluster_failover,
}
NAMES = tuple(_BUILDERS)


def build(
    name: str, seed: int, workdir: Path, scale: float = 1.0, engine: str | None = None
) -> Prepared:
    """Build one repeat of workload *name*; files it writes go in *workdir*.

    *engine* overrides the workload's burst engine (``object`` or
    ``vectorized``); None keeps the engine the workload is defined on.
    """
    return _BUILDERS[name](seed, scale, engine, workdir)


def simulated_metrics(outcome: Outcome) -> dict[str, float]:
    """Every simulated number the benchmark reports, by metric name.

    Fault latencies pool ``FAULT_KINDS`` samples over all tenants.  Values
    that a run path does not model (cores on ``simulate``, servers off
    the cluster) are 0.
    """
    machine, result = outcome.machine, outcome.result
    processes = result.processes.values()
    latencies = [latency for summary in processes for latency in summary.fault_latencies]
    kinds: Counter = Counter()
    tenants = {}
    for pid, summary in result.processes.items():
        kinds.update(summary.kind_counts)
        hits = sum(summary.kind_counts[kind] for kind in PREFETCH_HIT_KINDS)
        tenants[pid] = {"hits": hits, "faults": hits + summary.kind_counts[AccessKind.MAJOR_FAULT]}
    percentiles = percentiles_us(latencies)
    cq = machine.vmm.completion_queue.stats()
    prefetch = machine.metrics
    data_path = machine.data_path
    cores = getattr(result, "cores", {})
    recovery = machine.host_agent.recovery_stats() if machine.cluster is not None else {}
    servers = (outcome.payload or {}).get("servers", {})
    return {
        "sim_fault_p50_us": percentiles["p50_us"],
        "sim_fault_p99_us": percentiles["p99_us"],
        "sim_makespan_s": result.makespan_ns / 1e9,
        "sim.faults.major": kinds[AccessKind.MAJOR_FAULT],
        "sim.faults.cache_hit": kinds[AccessKind.CACHE_HIT],
        "sim.faults.inflight_hit": kinds[AccessKind.CACHE_HIT_INFLIGHT],
        "sim.faults.minor": kinds[AccessKind.MINOR_FAULT],
        "sim.prefetch.hit_rate": aggregate_hit_rate({"tenants": tenants}),
        "sim.prefetch.issued": prefetch.prefetch_issued,
        "sim.prefetch.accuracy": prefetch.accuracy,
        "sim.prefetch.evicted_unused": prefetch.evicted_unused,
        "sim.cq.peak_depth": cq["peak_depth"],
        "sim.cq.issued_demand": cq["issued_demand"],
        "sim.cq.issued_prefetch": cq["issued_prefetch"],
        "sim.mem.evictions": sum(p.evictions for p in machine.vmm.processes),
        "sim.mem.writebacks": sum(p.writebacks for p in machine.vmm.processes),
        "sim.datapath.demand_reads": data_path.demand_reads,
        "sim.datapath.async_reads": data_path.async_reads,
        "sim.datapath.async_writes": data_path.async_writes,
        "sim.core.utilization_min": min(
            (core.utilization(result.makespan_ns) for core in cores.values()), default=0.0
        ),
        "sim.core_wait_ms": sum(s.core_wait_ns for s in processes) / 1e6,
        "sim.migrations": getattr(result, "migrations", 0),
        "sim.cluster.remapped_slabs": recovery.get("remapped_slabs", 0),
        "sim.cluster.lost_pages": recovery.get("lost_pages", 0),
        "sim.server.p99_us_max": max((row["p99_us"] for row in servers.values()), default=0.0),
    }


def digest(simulated: dict[str, float]) -> str:
    """Canonical hash of a run's simulated metrics."""
    return spec_hash(simulated)


def check(outcome: Outcome, expected_accesses: int) -> list[str]:
    """Workload checks on one run's outputs; returns the violations."""
    problems = []
    completed = sum(summary.accesses for summary in outcome.result.processes.values())
    if completed != expected_accesses:
        problems.append(f"completed {completed} of {expected_accesses} accesses")
    for pid, summary in outcome.result.processes.items():
        if sum(summary.kind_counts.values()) != summary.accesses:
            problems.append(f"pid {pid}: access kinds do not add up to its accesses")
    if outcome.payload is not None:
        unfired = outcome.payload["totals"]["unfired_timeline_events"]
        if unfired:
            problems.append(f"{unfired} failure-timeline events never fired")
        lost = outcome.payload["recovery"]["lost_pages"]
        if lost:
            problems.append(f"{lost} remote pages lost in recovery")
        _, mismatched = outcome.machine.host_agent.verify_contents()
        if mismatched:
            problems.append(f"{mismatched} remote pages differ from their last write")
    return problems
