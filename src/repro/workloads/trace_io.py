"""Trace persistence: record and replay page-access traces.

Real reproduction work often wants to freeze a trace — to diff two
prefetchers on *exactly* the same fault stream, to ship a regression
trace with a bug report, to replay recorded traffic inside a scenario
(:mod:`repro.scenarios`), or to import an externally captured access
log.  Traces serialize to a line-oriented text format::

    # repro-trace v1
    # wss_pages=4096 think_ns=1000 count=30000 name=recorded
    vpn[,w][,t<ns>]

One access per line; a trailing ``,w`` marks a write and ``,t<ns>``
records a think time that differs from the header default, so a
save/load round trip reproduces every access *exactly* — vpn, write
flag, and per-access think time included.  The format is deliberately
trivial so external tools (awk, pandas) can produce it.

The metadata line follows the v2 container's rules: ``wss_pages`` is
required and at least 1, ``count`` (optional — external files may omit
it) at least 1, and ``think_ns`` at least 0.  :func:`load_trace` parses
the body straight into columns and replays it through the same
:class:`~repro.trace.format.ColumnarTraceWorkload` as a v2 file.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from repro.trace.format import ColumnarTraceWorkload

__all__ = [
    "TraceFormatError",
    "load_trace",
    "read_v1_header",
    "save_trace",
]

_HEADER = "# repro-trace v1"


class TraceFormatError(ValueError):
    """A trace file violates its format: the v1 header or the v2 container."""


def save_trace(
    path: str | Path,
    accesses: Iterable[tuple[int, bool, int]],
    wss_pages: int,
    think_ns: int = 0,
    name: str = "recorded",
) -> int:
    """Write a trace file; returns the number of accesses written.

    *accesses* yields ``(vpn, is_write, think_ns)`` tuples (a
    :class:`~repro.sim.process.PageAccess` is one).  *think_ns* is the
    default think time recorded in the header; an access whose think
    time differs is written with an explicit ``,t<ns>`` suffix so
    nothing is lost in the round trip.  The header
    records the access ``count``, which :func:`load_trace` checks — a
    truncated or padded file fails loudly instead of replaying short.
    """
    path = Path(path)
    if any(c.isspace() for c in name) or "=" in name or not name:
        raise ValueError(f"trace name must be a single token, got {name!r}")
    # Buffered (v1 is the small-trace interchange format; production
    # scale lives in v2) so the header can carry the count up front.
    items = list(accesses)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{_HEADER}\n")
        handle.write(
            f"# wss_pages={wss_pages} think_ns={think_ns} "
            f"count={len(items)} name={name}\n"
        )
        for vpn, is_write, think in items:
            parts = [str(vpn)]
            if is_write:
                parts.append("w")
            if think != think_ns:
                parts.append(f"t{think}")
            handle.write(",".join(parts) + "\n")
    return len(items)


#: Integer header fields: (key, least legal value, how errors name it).
_V1_INT_FIELDS = (
    ("wss_pages", 1, "wss_pages"),
    ("count", 1, "count"),
    ("think_ns", 0, "default think_ns"),
)


def read_v1_header(path: Path, handle) -> dict:
    """Read and validate the two header lines of a v1 trace.

    *handle* is the file opened in text mode at its start.  Returns
    ``name``, ``wss_pages``, ``think_ns`` (default 0), and ``count``
    (None when the file declares none).  Raises
    :class:`TraceFormatError` naming *path* and the offending field.
    """
    header = handle.readline().rstrip("\n")
    if header != _HEADER:
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


def _parse_access(
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


def load_trace(path: str | Path) -> "ColumnarTraceWorkload":
    """Load a v1 trace file into a replayable columnar workload.

    Every malformed body — a bad vpn or flag, a negative think time, a
    count that disagrees with the header, no accesses at all, or a vpn
    outside ``wss_pages`` — raises :class:`TraceFormatError` naming the
    file (and the line, where there is one).
    """
    from repro.trace.format import ColumnarTraceWorkload

    path = Path(path)
    vpns: list[int] = []
    writes: list[bool] = []
    thinks: list[int] = []
    with path.open("r", encoding="utf-8") as handle:
        metadata = read_v1_header(path, handle)
        think_ns = metadata["think_ns"]
        for line_number, line in enumerate(handle, start=3):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vpn, is_write, think = _parse_access(path, line_number, line, think_ns)
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
