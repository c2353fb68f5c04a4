"""Sniff, load, and convert between trace formats (v1 text ↔ v2 binary).

The sniffers and metadata readers here read headers only, so callers
that merely need to *identify* a trace — ``repro trace list``, the
service front door accepting a trace path as a tenant source — never
load column data.  Either format loads into one replay class,
:class:`~repro.trace.format.ColumnarTraceWorkload`.
"""

from __future__ import annotations

from pathlib import Path

from repro.trace.format import MAGIC, TraceFormatError, read_trace_v2_header

__all__ = [
    "convert_trace",
    "load_any_trace",
    "read_trace_meta",
    "sniff_trace",
    "trace_tenant_scenario",
]

_V1_HEADER = b"# repro-trace v1"


def sniff_trace(path: str | Path) -> str | None:
    """Identify a trace file by magic: ``"v1"``, ``"v2"``, or ``None``."""
    path = Path(path)
    if not path.is_file():
        return None
    with path.open("rb") as handle:
        head = handle.read(len(MAGIC))
    if head == MAGIC:
        return "v2"
    if head.startswith(_V1_HEADER):
        return "v1"
    return None


def _read_v1_meta(path: Path) -> dict:
    from repro.workloads.trace_io import read_v1_header

    with path.open("r", encoding="utf-8") as handle:
        metadata = read_v1_header(path, handle)
        count = metadata["count"]
        if count is None:
            count = sum(
                1
                for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            )
    return {
        "format": "repro-trace/1",
        "name": metadata["name"],
        "wss_pages": metadata["wss_pages"],
        "think_ns": metadata["think_ns"],
        "count": count,
        "provenance": {},
    }


def read_trace_meta(path: str | Path) -> dict:
    """Uniform metadata for either format, without loading the data.

    Returns ``format`` (``repro-trace/1`` or ``repro-trace/2``),
    ``name``, ``wss_pages``, ``think_ns``, ``count``, ``provenance``,
    and for v2 the on-disk ``columns`` list.  Stdlib-only: a v2 header
    parse plus derived-size validation, or the two v1 header lines (a
    v1 file without a ``count`` field is scanned to count it).
    """
    path = Path(path)
    kind = sniff_trace(path)
    if kind == "v2":
        header = read_trace_v2_header(path)
        return {
            "format": header["format"],
            "name": header["name"],
            "wss_pages": header["wss_pages"],
            "think_ns": header["think_ns"],
            "count": header["count"],
            "columns": header["columns"],
            "provenance": dict(header.get("provenance", {})),
        }
    if kind == "v1":
        return _read_v1_meta(path)
    raise TraceFormatError(f"{path}: not a repro trace (v1 or v2)")


def load_any_trace(path: str | Path):
    """Load either trace format into a replayable workload.

    Both come back as a :class:`~repro.trace.format.ColumnarTraceWorkload`:
    v1 text is parsed into columns, v2 columns are memory-mapped.
    """
    path = Path(path)
    kind = sniff_trace(path)
    if kind == "v2":
        from repro.trace.format import open_trace_v2

        return open_trace_v2(path)
    if kind == "v1":
        from repro.workloads.trace_io import load_trace

        return load_trace(path)
    raise TraceFormatError(f"{path}: not a repro trace (v1 or v2)")


def convert_trace(src: str | Path, dst: str | Path) -> dict:
    """Convert a trace between formats; direction follows the source.

    A v1 source writes a v2 file at *dst* (and vice versa); the
    destination's metadata dict is returned.  Conversion is lossless —
    every vpn, write flag, and per-access think time survives the round
    trip, which the tests pin.
    """
    src, dst = Path(src), Path(dst)
    kind = sniff_trace(src)
    if kind == "v1":
        from repro.provenance import code_revision
        from repro.trace.capture import capture_workload
        from repro.workloads.trace_io import load_trace

        workload = load_trace(src)
        return capture_workload(
            workload,
            dst,
            provenance={
                "converted_from": src.name,
                "source_format": "repro-trace/1",
                "code_rev": code_revision(),
            },
        )
    if kind == "v2":
        from repro.trace.format import open_trace_v2
        from repro.workloads.trace_io import save_trace

        workload = open_trace_v2(src)
        vpn, is_write, think_ns = workload.columns()
        count = save_trace(
            dst,
            zip(vpn.tolist(), is_write.tolist(), think_ns.tolist()),
            wss_pages=workload.wss_pages,
            think_ns=workload.think_ns,
            name=workload.name.replace(" ", "_"),
        )
        return {
            "format": "repro-trace/1",
            "name": workload.name,
            "wss_pages": workload.wss_pages,
            "think_ns": workload.think_ns,
            "count": count,
        }
    raise TraceFormatError(f"{src}: not a repro trace (v1 or v2)")


def trace_tenant_scenario(path: str | Path, *, tenant_name: str | None = None) -> dict:
    """Wrap a trace file as a single-tenant scenario dict.

    This is how ``repro service submit <trace-file>`` turns a bare
    trace path into a job: the dict round-trips through
    :meth:`repro.scenarios.spec.Scenario.from_dict` and replays the
    recording as one ``workload="trace"`` tenant.  Stdlib-only — the
    trace itself is opened later, by the worker that runs the job.
    """
    path = Path(path)
    meta = read_trace_meta(path)
    name = tenant_name if tenant_name is not None else meta["name"]
    return {
        "name": f"trace/{name}",
        "description": f"replay of recorded trace {path.name} ({meta['count']} accesses)",
        "tenants": [
            {
                "name": name,
                "workload": "trace",
                # Absolute so service workers (their own cwd) resolve it.
                "params": {"path": str(path.resolve())},
                "wss_pages": meta["wss_pages"],
            }
        ],
        "total_accesses": max(1, int(meta["count"])),
    }
