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
it) at least 1, and ``think_ns`` at least 0.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from repro.sim.process import PageAccess
from repro.workloads.base import Workload

__all__ = [
    "RecordedWorkload",
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
    accesses: Iterable[PageAccess],
    wss_pages: int,
    think_ns: int = 0,
    name: str = "recorded",
) -> int:
    """Write a trace file; returns the number of accesses written.

    *think_ns* is the default think time recorded in the header; an
    access whose ``think_ns`` differs is written with an explicit
    ``,t<ns>`` suffix so nothing is lost in the round trip.  The header
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
        for access in items:
            parts = [str(access.vpn)]
            if access.is_write:
                parts.append("w")
            if access.think_ns != think_ns:
                parts.append(f"t{access.think_ns}")
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
) -> PageAccess:
    vpn_text, _, rest = line.partition(",")
    try:
        vpn = int(vpn_text)
    except ValueError as error:
        raise ValueError(f"{path}:{line_number}: bad vpn {vpn_text!r}") from error
    is_write = False
    think_ns = default_think_ns
    for flag in rest.split(",") if rest else ():
        if flag == "w":
            is_write = True
        elif flag.startswith("t"):
            try:
                think_ns = int(flag[1:])
            except ValueError as error:
                raise ValueError(
                    f"{path}:{line_number}: bad think flag {flag!r}"
                ) from error
            if think_ns < 0:
                raise ValueError(
                    f"{path}:{line_number}: negative think time {flag!r}"
                )
        else:
            raise ValueError(f"{path}:{line_number}: unknown flag {flag!r}")
    return PageAccess(vpn=vpn, is_write=is_write, think_ns=think_ns)


def load_trace(path: str | Path) -> "RecordedWorkload":
    """Load a trace file into a replayable workload."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        metadata = read_v1_header(path, handle)
        think_ns = metadata["think_ns"]
        accesses: list[PageAccess] = []
        for line_number, line in enumerate(handle, start=3):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            accesses.append(_parse_access(path, line_number, line, think_ns))
    if not accesses:
        raise ValueError(f"{path}: trace holds no accesses")
    declared = metadata["count"]
    if declared is not None and len(accesses) != declared:
        kind = "truncated" if len(accesses) < declared else "padded"
        raise ValueError(
            f"{path}: {kind} trace — header declares count={declared} "
            f"but the file holds {len(accesses)} accesses"
        )
    return RecordedWorkload(
        accesses_list=accesses,
        wss_pages=metadata["wss_pages"],
        think_ns=think_ns,
        name=metadata["name"],
    )


class RecordedWorkload(Workload):
    """A workload that replays a fixed, previously recorded trace."""

    def __init__(
        self,
        accesses_list: list[PageAccess],
        wss_pages: int,
        think_ns: int = 0,
        name: str = "recorded",
    ) -> None:
        super().__init__(
            wss_pages=wss_pages,
            total_accesses=len(accesses_list),
            think_ns=think_ns,
        )
        self.name = name
        for access in accesses_list:
            if not 0 <= access.vpn < wss_pages:
                raise ValueError(
                    f"trace access vpn {access.vpn} outside wss {wss_pages}"
                )
        self._accesses = accesses_list

    def _vpn_stream(self, rng) -> Iterator[int]:
        """Unreachable by design: :meth:`accesses` replays the trace
        directly (the base generator would re-draw write flags and
        think times, corrupting the recording)."""
        raise NotImplementedError("RecordedWorkload overrides accesses()")

    def accesses(self) -> Iterator[PageAccess]:
        return iter(self._accesses)

    def columnar_blocks(self, block_size: int | None = None):
        """Columnar replay: the stored accesses packed once and cached.

        A recording is already fully materialized, so there is no RNG
        stream to mirror — the columns are built straight from the
        stored list (write flags and per-access think times included)
        and reused across replays of the same workload object.
        """
        from repro.kernel.columnar import DEFAULT_BLOCK_SIZE, AccessBlock

        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        cached = getattr(self, "_columnar_cache", None)
        if cached is None or cached[0] != block_size:
            import numpy as np

            blocks = []
            items = self._accesses
            for start in range(0, len(items), block_size):
                chunk = items[start : start + block_size]
                blocks.append(
                    AccessBlock(
                        vpn=np.array([a.vpn for a in chunk], dtype=np.int64),
                        is_write=np.array(
                            [a.is_write for a in chunk], dtype=np.bool_
                        ),
                        think_ns=np.array(
                            [a.think_ns for a in chunk], dtype=np.int64
                        ),
                    )
                )
            cached = (block_size, blocks)
            self._columnar_cache = cached
        return iter(cached[1])
