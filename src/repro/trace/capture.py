"""Capture any workload (or scenario tenant) into a v2 trace file.

Capture rides :meth:`~repro.workloads.base.Workload.columnar_blocks`,
the same columnar stream both engines replay, so freezing a workload
concatenates arrays end to end.  The emitted file replays
bit-identically to the live workload on both engines — the
capture→replay identity the tests pin.
"""

from __future__ import annotations

from pathlib import Path

from repro.workloads.base import Workload, materialize_columns

__all__ = ["capture_scenario_tenant", "capture_workload", "workload_provenance"]


def workload_provenance(workload: Workload, extra: dict | None = None) -> dict:
    """Provenance stamped into a captured header: spec hash + code rev."""
    from repro.provenance import code_revision, spec_hash

    spec = {
        "kind": type(workload).__name__,
        "name": workload.name,
        "wss_pages": workload.wss_pages,
        "total_accesses": workload.total_accesses,
        "seed": workload.seed,
        "think_ns": workload.think_ns,
        "write_fraction": workload.write_fraction,
    }
    if extra:
        spec.update(extra)
    return {"spec_hash": spec_hash(spec), "code_rev": code_revision()}


def capture_workload(
    workload: Workload,
    path: str | Path,
    *,
    name: str | None = None,
    provenance: dict | None = None,
) -> dict:
    """Freeze *workload* into a v2 trace at *path*; returns the header.

    The columns are concatenated from the workload's own block stream
    (:func:`~repro.workloads.base.materialize_columns`) and written with
    :func:`~repro.trace.format.write_trace_v2` (trivial columns dropped,
    atomic replace).
    """
    from repro.trace.format import write_trace_v2

    vpn, is_write, think_ns = materialize_columns(workload)
    return write_trace_v2(
        path,
        vpn,
        is_write,
        think_ns,
        wss_pages=workload.wss_pages,
        name=name if name is not None else workload.name,
        think_default=workload.think_ns,
        provenance=(
            provenance if provenance is not None else workload_provenance(workload)
        ),
    )


def capture_scenario_tenant(
    scenario_name: str,
    tenant_name: str,
    path: str | Path,
    *,
    seed: int = 42,
    wss_pages: int = 2_048,
    total_accesses: int = 24_000,
) -> dict:
    """Capture one tenant of a registered scenario into a v2 trace.

    Builds the scenario exactly as a run would (same derived tenant
    seeds, same open-loop arrival re-timing), then captures that
    tenant's access stream — so the file replays the very trace the
    tenant would have driven through the machine.
    """
    from repro.scenarios.registry import get_scenario
    from repro.scenarios.spec import build_tenant_workloads

    scenario = get_scenario(
        scenario_name, wss_pages=wss_pages, total_accesses=total_accesses
    )
    workloads, names = build_tenant_workloads(scenario, seed)
    by_name = {name: pid for pid, name in names.items()}
    if tenant_name not in by_name:
        raise ValueError(
            f"scenario {scenario_name!r} has no tenant {tenant_name!r} "
            f"(tenants: {', '.join(sorted(by_name))})"
        )
    workload = workloads[by_name[tenant_name]]
    provenance = workload_provenance(
        workload,
        extra={"scenario": scenario_name, "tenant": tenant_name, "run_seed": seed},
    )
    return capture_workload(
        workload,
        path,
        name=f"{scenario_name}/{tenant_name}",
        provenance=provenance,
    )
