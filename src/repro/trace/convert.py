"""Identify v2 traces without loading them, and import v1 text into v2.

Everything that replays, lists, analyzes or submits a trace reads
repro-trace v2 (:mod:`repro.trace.format`).  The line-oriented v1 text
format survives as an *import* format only: :func:`convert_trace` is
the one place that parses it, and every other reader refuses a v1 file
with a :class:`~repro.trace.format.TraceFormatError` that says to
import it.  A v1 file looks like::

    # repro-trace v1
    # wss_pages=4096 think_ns=1000 count=30000 name=recorded
    vpn[,w][,t<ns>]

One access per line; ``,w`` marks a write and ``,t<ns>`` a think time
other than the header default.  The metadata line follows the v2
container's rules: ``wss_pages`` is required and at least 1, ``count``
(optional — external files may omit it) at least 1, and ``think_ns``
at least 0.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.provenance import code_revision
from repro.trace.format import (
    MAGIC,
    V1_MAGIC,
    ColumnarTraceWorkload,
    TraceFormatError,
    read_trace_v2_header,
    write_trace_v2,
)

__all__ = [
    "convert_trace",
    "read_trace_meta",
    "sniff_trace",
    "trace_tenant_scenario",
]


def sniff_trace(path: str | Path) -> str | None:
    """Identify a trace file by magic: ``"v1"``, ``"v2"``, or ``None``."""
    path = Path(path)
    if not path.is_file():
        return None
    with path.open("rb") as handle:
        head = handle.read(len(MAGIC))
    if head == MAGIC:
        return "v2"
    if head == V1_MAGIC:
        return "v1"
    return None


def read_trace_meta(path: str | Path) -> dict:
    """A v2 trace's metadata, without loading the data.

    Returns ``format``, ``name``, ``wss_pages``, ``think_ns``,
    ``count``, the on-disk ``columns`` list and ``provenance``.
    Stdlib-only: a header parse plus derived-size validation.
    """
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


#: Integer v1 header fields: (key, least legal value, how errors name it).
_V1_INT_FIELDS = (
    ("wss_pages", 1, "wss_pages"),
    ("count", 1, "count"),
    ("think_ns", 0, "default think_ns"),
)


def _read_v1_header(path: Path, handle) -> dict:
    """Read and validate the two header lines of a v1 trace.

    Returns ``name``, ``wss_pages``, ``think_ns`` (default 0), and
    ``count`` (None when the file declares none).
    """
    header = handle.readline().rstrip("\n")
    if header != V1_MAGIC.decode():
        raise TraceFormatError(f"{path}: not a repro trace (header {header!r})")
    fields: dict[str, str] = {}
    for token in handle.readline().lstrip("# ").split():
        key, _, value = token.partition("=")
        fields[key] = value
    if "wss_pages" not in fields:
        raise TraceFormatError(f"{path}: header lacks wss_pages")
    meta: dict = {"name": fields.get("name", "recorded"), "think_ns": 0, "count": None}
    for key, least, label in _V1_INT_FIELDS:
        if key not in fields:
            continue
        try:
            value = int(fields[key])
        except ValueError:
            raise TraceFormatError(
                f"{path}: header {label}={fields[key]!r} is not an integer"
            ) from None
        if value < least:
            sign = "negative" if value < 0 else "zero"
            raise TraceFormatError(f"{path}: {sign} {label}={value} (must be >= {least})")
        meta[key] = value
    return meta


def _parse_v1_access(
    path: Path, line_number: int, line: str, default_think_ns: int
) -> tuple[int, bool, int]:
    vpn_text, _, rest = line.partition(",")
    try:
        vpn = int(vpn_text)
    except ValueError:
        raise TraceFormatError(f"{path}:{line_number}: bad vpn {vpn_text!r}") from None
    is_write = False
    think_ns = default_think_ns
    for flag in rest.split(",") if rest else ():
        if flag == "w":
            is_write = True
        elif flag.startswith("t"):
            try:
                think_ns = int(flag[1:])
            except ValueError:
                raise TraceFormatError(
                    f"{path}:{line_number}: bad think flag {flag!r}"
                ) from None
            if think_ns < 0:
                raise TraceFormatError(
                    f"{path}:{line_number}: negative think time {flag!r}"
                )
        else:
            raise TraceFormatError(f"{path}:{line_number}: unknown flag {flag!r}")
    return vpn, is_write, think_ns


def _import_v1(path: Path):
    """Parse a v1 text trace into a validated in-memory columnar workload.

    Every malformed file — a bad header field, vpn or flag, a negative
    think time, a count that disagrees with the header, no accesses at
    all, or a vpn outside ``wss_pages`` or int64 — raises
    :class:`TraceFormatError` naming the file (and the line, where
    there is one).
    """
    vpns: list[int] = []
    writes: list[bool] = []
    thinks: list[int] = []
    with path.open("r", encoding="utf-8") as handle:
        metadata = _read_v1_header(path, handle)
        think_ns = metadata["think_ns"]
        for line_number, line in enumerate(handle, start=3):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vpn, is_write, think = _parse_v1_access(path, line_number, line, think_ns)
            vpns.append(vpn)
            writes.append(is_write)
            thinks.append(think)
    if not vpns:
        raise TraceFormatError(f"{path}: trace holds no accesses")
    declared = metadata["count"]
    if declared is not None and len(vpns) != declared:
        kind = "truncated" if len(vpns) < declared else "padded"
        raise TraceFormatError(
            f"{path}: {kind} trace — header declares count={declared} "
            f"but the file holds {len(vpns)} accesses"
        )
    try:
        return ColumnarTraceWorkload(
            np.array(vpns, dtype=np.int64),
            np.array(writes, dtype=np.bool_),
            np.array(thinks, dtype=np.int64),
            wss_pages=metadata["wss_pages"],
            think_ns=think_ns,
            name=metadata["name"],
        )
    except (ValueError, OverflowError) as error:
        raise TraceFormatError(f"{path}: {error}") from None


def convert_trace(src: str | Path, dst: str | Path) -> dict:
    """Import the v1 text trace *src* as a v2 file at *dst*.

    Returns the written header.  The import is lossless — every vpn,
    write flag, and per-access think time survives, which the tests
    pin — and stamps provenance naming the source file.  A v2 *src* is
    refused: there is no v2→v1 direction.
    """
    src, dst = Path(src), Path(dst)
    if sniff_trace(src) == "v2":
        raise TraceFormatError(
            f"{src}: already a repro-trace v2 file; convert imports v1 text only"
        )
    workload = _import_v1(src)
    return write_trace_v2(
        dst,
        *workload.columns(),
        wss_pages=workload.wss_pages,
        name=workload.name,
        think_default=workload.think_ns,
        provenance={
            "converted_from": src.name,
            "source_format": "repro-trace/1",
            "code_rev": code_revision(),
        },
    )


def trace_tenant_scenario(path: str | Path, *, tenant_name: str | None = None) -> dict:
    """Wrap a v2 trace file as a single-tenant scenario dict.

    This is how ``repro service submit <trace-file>`` turns a bare
    trace path into a job: the dict round-trips through
    :meth:`repro.scenarios.spec.Scenario.from_dict` and replays the
    recording as one ``workload="trace"`` tenant.  Stdlib-only — the
    trace itself is opened later, by the worker that runs the job.
    """
    path = Path(path)
    meta = read_trace_v2_header(path)
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
