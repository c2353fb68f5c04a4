"""Profiling entry points: build, run, time and reduce a measured run.

Every measured run this repository turns into a ``BENCH_<name>.json``
artifact is built from one table.  :data:`PROFILES` maps each profile
name — which is also its artifact's ``bench`` name and its committed
baseline's file stem — to the builder that runs it, and
:func:`run_profile` is the one way in for ``repro perf`` and
``repro obs record``:

* ``fig13`` — the four paper applications on the Leap stack through the
  concurrent engine, at a scale small enough for a smoke job, reduced
  to per-app p50/p95/p99 fault latencies, completion times, and fault
  counts;
* ``fig13_scale`` — four hot-set tenants at ``FIG13_SCALE_TIER``, the
  burst engines' wall-clock yardstick;
* ``cluster`` — the fig13 mix over a heterogeneous multi-server memory
  cluster, with per-*server* p50/p95/p99 read latency, utilization,
  QP contention, and recovery accounting added;
* ``scenarios`` — the gated multi-tenant scenario set;
* ``control`` — the governed-vs-static control-plane A/B;
* ``trace`` — a million-access trace captured, replayed, and analyzed.

The single-machine profiles (``fig13``, ``fig13_scale``, ``cluster``,
``trace``) share one copy of the wiring, :func:`_measure`.  Builders
import the machine, workload, trace and scenario stacks lazily, so
importing this module (the repository benchmark does, at start-up, for
its tier constants) stays cheap.
"""

from __future__ import annotations

import inspect
import time
from typing import Mapping

from repro.metrics.latency import percentile
from repro.perf.artifacts import ARTIFACT_SCHEMA_VERSION
from repro.sim.run import RunResult

__all__ = [
    "PROFILES",
    "percentiles_us",
    "profile_concurrent",
    "profile_cluster",
    "run_profile",
    "SCENARIO_PROFILE_NAMES",
    "CONTROL_PROFILE_SCENARIO",
    "FIG13_SCALE_TIER",
    "TRACE_PROFILE_TIER",
]

#: Scenarios the CI perf gate runs: a skewed web tier (steady-state
#: multi-tenant latency), an interference mix (noisy neighbor), and a
#: failure drill (fault-path latency under recovery) — one per regime
#: the scenario engine must keep fast.
SCENARIO_PROFILE_NAMES = ("web-tier-zipf", "noisy-neighbor", "failover-under-load")

#: The governed scenario the control-plane gate A/Bs against statics.
CONTROL_PROFILE_SCENARIO = "phase-shift-governed"

#: Each application's cgroup limit in the fig13 and cluster mixes, as a
#: fraction of its working set (the paper's §5.3 50% setting).
APP_MEMORY_FRACTION = 0.5

#: The cluster profile's per-server queue pairs and the seeded spread
#: of per-server fabric medians (see ``cluster_config``).
CLUSTER_SERVER_QPS = 2
CLUSTER_LATENCY_SPREAD = 0.15

#: Address-space regions the trace profile's analyzer reports.
TRACE_REGIONS = 8


def percentiles_us(samples: list[int]) -> dict[str, float]:
    """p50/p95/p99 of nanosecond samples, reported in microseconds."""
    if not samples:
        return {"p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0}
    return {
        "p50_us": percentile(samples, 50) / 1e3,
        "p95_us": percentile(samples, 95) / 1e3,
        "p99_us": percentile(samples, 99) / 1e3,
    }


def profile_concurrent(
    result: RunResult,
    app_names: Mapping[int, str],
    bench: str,
    config: dict | None = None,
    wall_clock_s: float | None = None,
) -> dict:
    """Reduce a (concurrent) run to a ``BENCH_*.json``-shaped artifact."""
    apps: dict[str, dict] = {}
    for pid, name in app_names.items():
        summary = result.processes[pid]
        row = percentiles_us(summary.fault_latencies)
        row.update(
            completion_s=round(summary.completion_seconds, 6),
            faults=len(summary.fault_latencies),
            accesses=summary.accesses,
            core_wait_ms=round(summary.core_wait_ns / 1e6, 3),
            migrations=summary.migrations,
        )
        apps[name] = row
    artifact: dict = {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "bench": bench,
        "engine": "concurrent",
        "config": dict(config or {}),
        "apps": apps,
    }
    if wall_clock_s is not None:
        artifact["wall_clock_s"] = round(wall_clock_s, 3)
    # Fault-pipeline counters (informational): coalescing proves demand
    # faults attach to in-flight prefetches instead of re-issuing, and
    # the in-flight peak tracks completion-queue depth.
    metrics = result.machine.metrics
    artifact["pipeline"] = {
        "coalesced_faults": metrics.coalesced_faults,
        "inflight_peak": metrics.inflight_peak,
        "prefetch_backpressured": metrics.prefetch_backpressured,
        "completion_queue": result.machine.vmm.completion_queue.stats(),
    }
    cores = getattr(result, "cores", None)
    if cores:
        makespan = result.makespan_ns
        artifact["cores"] = {
            str(core_id): {
                "busy_ns": summary.busy_ns,
                "accesses": summary.accesses,
                "utilization": round(summary.utilization(makespan), 4),
            }
            for core_id, summary in cores.items()
        }
        artifact["migrations"] = getattr(result, "migrations", 0)
    return artifact


def profile_cluster(
    result: RunResult,
    app_names: Mapping[int, str],
    bench: str,
    config: dict | None = None,
    wall_clock_s: float | None = None,
) -> dict:
    """Reduce a cluster run to an artifact with per-server sections.

    Builds the per-app rows via :func:`profile_concurrent`, then adds
    ``servers`` (p50/p95/p99 read latency, reads/writes, utilization,
    QP contention per memory server — gated in CI like app rows) and
    ``recovery`` (remap/re-fetch/failover accounting, informational).
    """
    artifact = profile_concurrent(
        result, app_names, bench, config=config, wall_clock_s=wall_clock_s
    )
    artifact["engine"] = "cluster"
    agent = result.machine.host_agent
    servers: dict[str, dict] = {}
    for server_id, server in sorted(agent.remote_agents.items()):
        row = percentiles_us(server.read_latencies)
        row.update(server.stats_row())
        servers[str(server_id)] = row
    artifact["servers"] = servers
    artifact["recovery"] = agent.recovery_stats()
    # Host-side dispatch-queue depth (informational, like recovery):
    # per-core ops and the peak backlog a submission queued behind.
    artifact["dispatch"] = {str(c): row for c, row in sorted(agent.dispatch_stats().items())}
    return artifact


def _measure(
    bench: str,
    machine_config,
    workloads: Mapping[str, object],
    config: dict,
    *,
    run=None,
    reduce=profile_concurrent,
    observer=None,
    **options,
) -> tuple[dict, RunResult]:
    """Run named *workloads* on one machine; return (artifact, result).

    The one copy of the single-machine wiring: build the machine from
    *machine_config*, number the workloads as pids 1..N in order,
    attach *observer* (a :class:`repro.obs.RunRecorder`; tracing and
    epoch sampling never change a simulated number) when given, time
    ``run(machine, workloads, **options)`` — by default
    :meth:`~repro.sim.machine.Machine.run_concurrent` — and reduce the
    result with *reduce* into a ``bench`` artifact carrying *config*.
    """
    from repro.sim.machine import Machine

    machine = Machine(machine_config)
    names = dict(enumerate(workloads, start=1))
    if observer is not None:
        observer.attach(machine)
        options.update(epoch_ns=observer.epoch_ns, on_epoch=observer.on_epoch)
    started = time.perf_counter()
    result = (run or Machine.run_concurrent)(
        machine, {pid: workloads[name] for pid, name in names.items()}, **options
    )
    wall_clock_s = time.perf_counter() - started
    artifact = reduce(result, names, bench=bench, config=config, wall_clock_s=wall_clock_s)
    return artifact, result


def _leap_mix(
    bench: str,
    workloads: Mapping[str, object],
    *,
    seed: int,
    cores: int,
    wss_pages: int,
    accesses: int,
    memory_fraction: float,
    engine: str,
    observer,
) -> tuple[dict, RunResult]:
    """A multi-tenant mix on the Leap stack's concurrent engine."""
    from repro.sim.machine import leap_config

    config = {
        "seed": seed,
        "cores": cores,
        "wss_pages": wss_pages,
        "accesses": accesses,
        "memory_fraction": memory_fraction,
        "engine_impl": engine,
        "system": "d-vmm+leap",
    }
    return _measure(
        bench,
        leap_config(seed=seed, engine=engine),
        workloads,
        config,
        observer=observer,
        cores=cores,
        memory_fraction=memory_fraction,
    )


def _fig13(
    seed: int = 42,
    cores: int = 4,
    wss_pages: int = 2048,
    accesses: int = 8000,
    engine: str = "object",
    observer=None,
) -> tuple[dict, RunResult]:
    """The Figure 13 mix on the Leap stack.

    The defaults are the CI smoke scale — a few seconds of wall clock —
    not the full benchmark scale used by ``benchmarks/``.  *engine*
    selects the burst engine (``object``/``vectorized``); every
    simulated metric in the artifact is byte-identical either way (see
    docs/kernel.md), only ``wall_clock_s`` differs.
    """
    from repro.bench.prefetch import application_workloads
    from repro.bench.runner import BenchScale

    scale = BenchScale(wss_pages=wss_pages, accesses=accesses, seed=seed)
    return _leap_mix(
        "fig13",
        application_workloads(scale),
        seed=seed,
        cores=cores,
        wss_pages=wss_pages,
        accesses=accesses,
        memory_fraction=APP_MEMORY_FRACTION,
        engine=engine,
        observer=observer,
    )


#: The fig13 *scale* tier: big enough that the burst engine's hot loop
#: dominates wall clock, resident enough (0.95 memory fraction, hot-set
#: workloads) that whole-burst classification has runs to vectorize —
#: the regime the paper's Figure 11 memory-fraction axis calls the
#: common case.  See PERF_BUDGETS.md for the wall-clock budget.
FIG13_SCALE_TIER = {
    "wss_pages": 4096,
    "accesses": 240_000,
    "memory_fraction": 0.95,
}


def _fig13_scale(
    seed: int = 42,
    cores: int = 4,
    engine: str = "vectorized",
    observer=None,
) -> tuple[dict, RunResult]:
    """The fig13 *scale tier*: the burst engines' yardstick.

    Four hot-set tenants (two zipfian skews, a permutation loop, and a
    zipfian→permloop phase shift) at ``FIG13_SCALE_TIER`` scale on the
    Leap stack.  The tier exists to measure the burst engines against
    each other: simulated metrics are byte-identical across engines
    (pinned by the equivalence tests), so the committed baseline gates
    them like any profile, while ``wall_clock_s`` records the engine's
    speed and can be budgeted with ``--max-wall-clock``.
    """
    from repro.workloads.patterns import ZipfianWorkload
    from repro.workloads.phased import PhasedWorkload

    wss_pages = FIG13_SCALE_TIER["wss_pages"]
    accesses = FIG13_SCALE_TIER["accesses"]
    loop_pages = int(wss_pages * 0.8)
    workloads = {
        "zipf-hot": ZipfianWorkload(wss_pages, accesses, skew=1.3, seed=seed),
        "zipf-tail": ZipfianWorkload(wss_pages, accesses, skew=1.15, seed=seed + 1),
        "permloop": PhasedWorkload(
            wss_pages,
            accesses,
            phases=[{"kind": "permloop", "loop_pages": loop_pages}],
            seed=seed + 2,
        ),
        "phase-shift": PhasedWorkload(
            wss_pages,
            accesses,
            phases=[
                {"kind": "zipfian", "skew": 1.2},
                {"kind": "permloop", "loop_pages": loop_pages},
            ],
            seed=seed + 3,
        ),
    }
    return _leap_mix(
        "fig13_scale",
        workloads,
        seed=seed,
        cores=cores,
        wss_pages=wss_pages,
        accesses=accesses,
        memory_fraction=FIG13_SCALE_TIER["memory_fraction"],
        engine=engine,
        observer=observer,
    )


def _cluster(
    seed: int = 42,
    cores: int = 4,
    wss_pages: int = 2048,
    accesses: int = 8000,
    servers: int = 4,
) -> tuple[dict, RunResult]:
    """The fig13 mix over a *servers*-node memory cluster, failure-free.

    Failure-free keeps the baseline stable; the ``scenarios`` profile's
    ``failover-under-load`` drill gates the crash-and-recover path.
    """
    from repro.bench.prefetch import application_workloads
    from repro.bench.runner import BenchScale
    from repro.sim.machine import Machine, cluster_config

    scale = BenchScale(wss_pages=wss_pages, accesses=accesses, seed=seed)
    machine_config = cluster_config(
        seed=seed,
        remote_machines=servers,
        server_qps=CLUSTER_SERVER_QPS,
        server_latency_spread=CLUSTER_LATENCY_SPREAD,
    )
    config = {
        "seed": seed,
        "cores": cores,
        "servers": servers,
        "server_qps": CLUSTER_SERVER_QPS,
        "latency_spread": CLUSTER_LATENCY_SPREAD,
        "wss_pages": wss_pages,
        "accesses": accesses,
        "memory_fraction": APP_MEMORY_FRACTION,
        "system": "d-vmm+leap+cluster",
    }
    return _measure(
        "cluster",
        machine_config,
        application_workloads(scale),
        config,
        run=Machine.run_cluster,
        reduce=profile_cluster,
        cores=cores,
        memory_fraction=APP_MEMORY_FRACTION,
    )


#: The trace-profile tier: a million-access KV-cache paging trace —
#: the production-scale regime the columnar trace subsystem exists for.
#: High residency (0.9 memory fraction) keeps the replay in the burst
#: engines' vectorizable common case; the kvcache mix balances the hot
#: prefix against decode appends and recency lookups so all three
#: phases land in the capture.  See PERF_BUDGETS.md for the budget.
TRACE_PROFILE_TIER = {
    "wss_pages": 16_384,
    "accesses": 1_000_000,
    "memory_fraction": 0.9,
    "hot_fraction": 0.125,
    "append_pages": 64,
    "lookups_per_append": 192,
}


def _trace(seed: int = 42, engine: str = "vectorized") -> tuple[dict, RunResult]:
    """Capture, replay, and analyze a million-access trace end to end.

    The full trace lifecycle at ``TRACE_PROFILE_TIER`` scale: generate
    the KV-cache paging workload, capture it to a v2 columnar file
    (straight from its block stream), reopen it memory-mapped, replay
    it through the machine on *engine*, and run the vectorized
    analyzer on its columns.  The replay row (``kvcache-replay``) is
    gated on ``p95_us``/``completion_s`` like any app row; the
    analyzer's ``trace/*`` and ``region/*`` rows ride along for
    ``repro perf compare`` diffs (no gated metrics).  Per-stage wall
    clocks land in ``config`` and the end-to-end total in
    ``wall_clock_s`` for ``--max-wall-clock`` budgeting.
    """
    import tempfile
    from pathlib import Path

    from repro.sim.machine import leap_config
    from repro.sim.simulate import simulate
    from repro.trace.analyze import analyze_columns
    from repro.trace.capture import capture_workload
    from repro.trace.format import open_trace_v2
    from repro.workloads.kvcache import KVCacheWorkload

    tier = TRACE_PROFILE_TIER
    workload = KVCacheWorkload(
        wss_pages=tier["wss_pages"],
        total_accesses=tier["accesses"],
        seed=seed,
        hot_fraction=tier["hot_fraction"],
        append_pages=tier["append_pages"],
        lookups_per_append=tier["lookups_per_append"],
    )
    config = {
        "seed": seed,
        "engine_impl": engine,
        "regions": TRACE_REGIONS,
        "system": "d-vmm+leap",
        **tier,
    }
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        path = Path(tmp) / "kvcache.rtrace"
        capture_workload(workload, path)
        captured = time.perf_counter()
        trace = open_trace_v2(path)
        opened = time.perf_counter()
        artifact, result = _measure(
            "trace",
            leap_config(seed=seed, engine=engine),
            {"kvcache-replay": trace},
            config,
            run=simulate,
            memory_fraction=tier["memory_fraction"],
        )
        replayed = time.perf_counter()
        vpn, is_write, think_ns = trace.columns()
        analysis = analyze_columns(
            vpn,
            is_write,
            think_ns,
            wss_pages=trace.wss_pages,
            name=trace.name,
            regions=TRACE_REGIONS,
        )
    finished = time.perf_counter()
    artifact["config"]["stage_wall_s"] = {
        "capture": round(captured - started, 3),
        "open": round(opened - captured, 4),
        "replay": round(replayed - opened, 3),
        "analyze": round(finished - replayed, 3),
    }
    artifact["wall_clock_s"] = round(finished - started, 3)
    artifact["engine"] = "trace"
    artifact["apps"].update(analysis["apps"])
    return artifact, result


def _scenarios(
    seed: int = 42,
    cores: int = 4,
    wss_pages: int = 2048,
    accesses: int = 8000,
    servers: int = 4,
) -> tuple[dict, list[dict]]:
    """Run the gated scenario set on the cluster engine.

    Returns ``(artifact, payloads)``: per-tenant rows land in ``apps``
    keyed ``<scenario>/<tenant>`` (gated on ``p95_us``/``completion_s``
    like any app row) and per-server read latencies in ``servers``
    keyed ``<scenario>/<server_id>`` — so a regression in steady-state,
    interference, or failure-recovery latency fails the gate.  The set
    runs three multi-tenant mixes, so each runs at half the shared
    *wss_pages*/*accesses* scale to keep the smoke job a smoke job.
    """
    from repro.scenarios import run_scenario

    wss_pages //= 2
    accesses //= 2
    apps: dict[str, dict] = {}
    server_rows: dict[str, dict] = {}
    payloads: list[dict] = []
    started = time.perf_counter()
    for name in SCENARIO_PROFILE_NAMES:
        payload = run_scenario(
            name,
            seed=seed,
            cores=cores,
            servers=servers,
            wss_pages=wss_pages,
            total_accesses=accesses,
        )
        payloads.append(payload)
        for tenant, row in payload["tenants"].items():
            apps[f"{name}/{tenant}"] = dict(row)
        for server_id, row in payload.get("servers", {}).items():
            server_rows[f"{name}/{server_id}"] = dict(row)
    wall_clock_s = time.perf_counter() - started
    artifact: dict = {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "bench": "scenarios",
        "engine": "scenario",
        "config": {
            "seed": seed,
            "cores": cores,
            "servers": servers,
            "wss_pages": wss_pages,
            "accesses": accesses,
            "scenarios": list(SCENARIO_PROFILE_NAMES),
            "system": "d-vmm+leap+cluster",
        },
        "apps": apps,
        "servers": server_rows,
        "totals": {
            payload["scenario"]: dict(payload["totals"]) for payload in payloads
        },
        "wall_clock_s": round(wall_clock_s, 3),
    }
    return artifact, payloads


def _control(
    seed: int = 42,
    cores: int = 4,
    wss_pages: int = 2048,
    accesses: int = 8000,
) -> tuple[dict, dict]:
    """Run the governed-vs-static A/B for the control-plane gate.

    Returns ``(artifact, ab_payload)``.  Per-tenant rows land in
    ``apps`` keyed ``<arm>/<tenant>`` (gated on ``p95_us`` /
    ``completion_s`` like any app row, so both the governed run and
    every static arm are regression-gated), and the ``control`` section
    records the aggregate hit rate per arm, the governor's decisions,
    and whether the governed run beat the best static arm — the
    artifact-level statement of the control plane's reason to exist.
    One scenario runs as 1 governed + N static arms, so the A/B uses a
    quarter of the shared *wss_pages* and three quarters of *accesses*.
    """
    from repro.scenarios import run_control_ab

    wss_pages //= 4
    accesses = (3 * accesses) // 4
    started = time.perf_counter()
    ab = run_control_ab(
        CONTROL_PROFILE_SCENARIO,
        seed=seed,
        cores=cores,
        wss_pages=wss_pages,
        total_accesses=accesses,
    )
    wall_clock_s = time.perf_counter() - started
    apps: dict[str, dict] = {}
    for arm, payload in ab["arms"].items():
        for tenant, row in payload["tenants"].items():
            apps[f"{arm}/{tenant}"] = dict(row)
    governed_control = ab["arms"]["governed"].get("control", {})
    artifact: dict = {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "bench": "control",
        "engine": "control",
        "config": {
            "seed": seed,
            "cores": cores,
            "wss_pages": wss_pages,
            "accesses": accesses,
            "scenario": ab["scenario"],
            "statics": ab["config"]["statics"],
            "system": "d-vmm+leap+governor",
        },
        "apps": apps,
        "control": {
            **ab["summary"],
            "decisions": governed_control.get("decisions", []),
            "policies": governed_control.get("policies", {}),
            "epochs_fired": governed_control.get("epochs_fired", 0),
        },
        "wall_clock_s": round(wall_clock_s, 3),
    }
    return artifact, ab


#: Every measured run, by name (= artifact ``bench`` = baseline stem).
#: A builder's keyword defaults are the profile's CI-gate settings.
PROFILES = {
    "fig13": _fig13,
    "fig13_scale": _fig13_scale,
    "cluster": _cluster,
    "scenarios": _scenarios,
    "control": _control,
    "trace": _trace,
}


def run_profile(name: str, **options) -> tuple[dict, object]:
    """Build, run, and reduce profile *name*; return (artifact, result).

    *options* are the builder's keywords — ``seed``, ``cores``,
    ``wss_pages``, ``accesses``, ``servers``, ``engine``, ``observer``
    — where None means the profile's own default.  An option the
    profile does not take (a working-set size for a pinned tier, an
    engine for a scenario profile) is a ValueError, not silently
    ignored.  *result* is the run's :class:`RunResult` (or the
    scenario payloads for ``scenarios``/``control``).
    """
    build = PROFILES[name]
    given = {key: value for key, value in options.items() if value is not None}
    extra = [key for key in given if key not in inspect.signature(build).parameters]
    if extra:
        raise ValueError(f"the {name} profile takes no {'/'.join(extra)} option")
    return build(**given)
