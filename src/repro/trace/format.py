"""The repro-trace v2 binary container and its zero-copy workload.

A v2 trace is one file::

    offset 0   magic            b"#repro-trace v2\\n"      (16 bytes)
    offset 16  header_len       uint64 little-endian       (8 bytes)
    offset 24  header           UTF-8 JSON, header_len bytes
    ...        padding          b" " up to a 64-byte boundary
    ...        column sections  raw little-endian arrays, in header order

The JSON header carries the trace metadata (``name``, ``wss_pages``,
default ``think_ns``, ``count``, optional ``provenance``) plus the
ordered ``columns`` list — ``[name, dtype]`` pairs of the sections
actually present.  Section offsets are *derived*, never stored: the
first column starts at the 64-byte boundary after the header and each
subsequent column follows 8-byte-aligned, so a reader computes every
offset from ``count`` alone and a truncated file is detected by
comparing the derived end against the real file size.

Columns whose content is trivial are omitted from the file and
synthesized on load as broadcast views (still zero-copy): ``is_write``
when no access writes, ``think_ns`` when every access uses the header
default.  A million-access trace is therefore ~8 MB and opens
memory-mapped in milliseconds — :class:`ColumnarTraceWorkload` slices
:class:`~repro.kernel.AccessBlock` views straight off the maps.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

from repro.workloads.base import Workload

__all__ = [
    "FORMAT_NAME",
    "MAGIC",
    "ColumnarTraceWorkload",
    "TraceFormatError",
    "V1_MAGIC",
    "open_trace_v2",
    "read_trace_v2_header",
    "write_trace_v2",
]

MAGIC = b"#repro-trace v2\n"
FORMAT_NAME = "repro-trace/2"
#: First line of a v1 text trace, which only ``repro trace convert``
#: reads (:func:`repro.trace.convert.convert_trace`).
V1_MAGIC = b"# repro-trace v1"

#: Column sections a v2 file may carry, in their fixed file order.
#: ``vpn`` is mandatory; the other two are omitted when trivial.
COLUMN_DTYPES = {"vpn": "<i8", "think_ns": "<i8", "is_write": "|u1"}
_COLUMN_ORDER = ("vpn", "think_ns", "is_write")

_ALIGN = 64
#: Sanity bound on the JSON header (metadata, not data).
_MAX_HEADER_BYTES = 1 << 20


class TraceFormatError(ValueError):
    """A trace file violates its format: the v2 container or v1 text."""


def _align(offset: int, alignment: int) -> int:
    return (offset + alignment - 1) // alignment * alignment


def _header_bytes(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _section_layout(columns: list[list[str]], count: int, data_start: int):
    """Derive ``(name, dtype, offset, nbytes)`` per column section."""
    layout = []
    offset = data_start
    for name, dtype in columns:
        expected = COLUMN_DTYPES.get(name)
        if expected is None:
            raise TraceFormatError(f"unknown trace column {name!r}")
        if dtype != expected:
            raise TraceFormatError(
                f"column {name!r} declares dtype {dtype!r}, expected {expected!r}"
            )
        offset = _align(offset, 8)
        itemsize = 8 if dtype == "<i8" else 1
        layout.append((name, dtype, offset, count * itemsize))
        offset += count * itemsize
    return layout, offset


def write_trace_v2(
    path: str | Path,
    vpn,
    is_write=None,
    think_ns=None,
    *,
    wss_pages: int,
    name: str = "recorded",
    think_default: int = 0,
    provenance: dict | None = None,
) -> dict:
    """Write a v2 trace from column arrays; returns the header dict.

    *vpn* is required (any integer array-like); *is_write* / *think_ns*
    may be ``None`` meaning "all reads" / "all the default".  Columns
    that turn out trivial are dropped from the file (the loader
    synthesizes them), so a constant-think read trace costs 8 bytes per
    access.  The write is atomic (temp file + ``os.replace``).
    """
    import numpy as np

    vpn = np.ascontiguousarray(vpn, dtype=np.int64)
    if vpn.ndim != 1 or len(vpn) == 0:
        raise ValueError("vpn must be a non-empty 1-d array")
    count = len(vpn)
    if wss_pages <= 0:
        raise ValueError(f"wss_pages must be positive, got {wss_pages}")
    lo, hi = int(vpn.min()), int(vpn.max())
    if lo < 0 or hi >= wss_pages:
        raise ValueError(
            f"trace vpns span [{lo}, {hi}], outside working set [0, {wss_pages})"
        )
    if think_default < 0:
        raise ValueError(f"think_default must be non-negative, got {think_default}")
    sections: dict[str, "np.ndarray"] = {}
    if think_ns is not None:
        think_arr = np.ascontiguousarray(think_ns, dtype=np.int64)
        if len(think_arr) != count:
            raise ValueError("think_ns column length mismatch")
        if think_arr.min() < 0:
            raise ValueError("think_ns column holds a negative think time")
        if not (think_arr == think_default).all():
            sections["think_ns"] = think_arr
    if is_write is not None:
        write_arr = np.ascontiguousarray(is_write).astype(np.uint8, copy=False)
        if len(write_arr) != count:
            raise ValueError("is_write column length mismatch")
        if write_arr.max(initial=0) > 1:
            raise ValueError("is_write column must hold only 0/1")
        if write_arr.any():
            sections["is_write"] = write_arr
    columns = [["vpn", COLUMN_DTYPES["vpn"]]]
    for column in _COLUMN_ORDER[1:]:
        if column in sections:
            columns.append([column, COLUMN_DTYPES[column]])
    header = {
        "format": FORMAT_NAME,
        "name": str(name),
        "wss_pages": int(wss_pages),
        "think_ns": int(think_default),
        "count": count,
        "columns": columns,
    }
    if provenance:
        header["provenance"] = dict(provenance)
    body = _header_bytes(header)
    if len(body) > _MAX_HEADER_BYTES:
        raise ValueError("trace header metadata too large")
    data_start = _align(len(MAGIC) + 8 + len(body), _ALIGN)
    layout, _ = _section_layout(columns, count, data_start)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<Q", len(body)))
        handle.write(body)
        handle.write(b" " * (data_start - len(MAGIC) - 8 - len(body)))
        position = data_start
        for section_name, _, offset, nbytes in layout:
            handle.write(b"\0" * (offset - position))
            array = vpn if section_name == "vpn" else sections[section_name]
            handle.write(array.tobytes())
            position = offset + nbytes
    os.replace(tmp, path)
    return header


def read_trace_v2_header(path: str | Path) -> dict:
    """Read and validate a v2 header (stdlib-only; no numpy needed)."""
    path = Path(path)
    with path.open("rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic == V1_MAGIC:
            raise TraceFormatError(
                f"{path}: v1 text trace; import it with `repro trace convert`"
            )
        if magic != MAGIC:
            raise TraceFormatError(f"{path}: not a repro-trace v2 file")
        length_field = handle.read(8)
        if len(length_field) != 8:
            raise TraceFormatError(f"{path}: truncated file (header length cut short)")
        (header_len,) = struct.unpack("<Q", length_field)
        if not 2 <= header_len <= _MAX_HEADER_BYTES:
            raise TraceFormatError(f"{path}: implausible header length {header_len}")
        body = handle.read(header_len)
    if len(body) != header_len:
        raise TraceFormatError(f"{path}: truncated file (header cut short)")
    try:
        header = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceFormatError(f"{path}: corrupt header JSON: {error}") from None
    if not isinstance(header, dict):
        raise TraceFormatError(f"{path}: header is not a JSON object")
    if header.get("format") != FORMAT_NAME:
        raise TraceFormatError(
            f"{path}: header declares format {header.get('format')!r}, "
            f"expected {FORMAT_NAME!r}"
        )
    for key in ("name", "wss_pages", "think_ns", "count", "columns"):
        if key not in header:
            raise TraceFormatError(f"{path}: header missing {key!r}")
    for key, least in (("count", 1), ("wss_pages", 1), ("think_ns", 0)):
        value = header[key]
        if type(value) is not int or value < least:
            raise TraceFormatError(
                f"{path}: header {key} {value!r} must be an integer >= {least}"
            )
    count = header["count"]
    columns = header["columns"]
    if not isinstance(columns, list) or not all(
        isinstance(column, list) and len(column) == 2 for column in columns
    ):
        raise TraceFormatError(f"{path}: columns must be [name, dtype] pairs, got {columns!r}")
    if not columns or columns[0][0] != "vpn":
        raise TraceFormatError(f"{path}: first column must be 'vpn', got {columns!r}")
    data_start = _align(len(MAGIC) + 8 + header_len, _ALIGN)
    _, end = _section_layout([list(c) for c in columns], count, data_start)
    size = path.stat().st_size
    if size < end:
        raise TraceFormatError(
            f"{path}: truncated file ({size} bytes, header count={count} "
            f"requires {end})"
        )
    header["_data_start"] = data_start
    return header


def open_trace_v2(path: str | Path) -> "ColumnarTraceWorkload":
    """Memory-map a v2 trace into a replayable columnar workload.

    The columns stay on disk: each is a plain read-only ``np.ndarray``
    view of an ``np.memmap`` section (the view's base keeps the mapping
    alive, and slicing it runs none of ``np.memmap``'s Python hooks);
    omitted columns come back as broadcast views.  The O(n) validation
    scans (vpn within the working set, is_write ∈ {0, 1}, no negative
    think time) cost milliseconds per million accesses; every
    violation raises :class:`TraceFormatError`, and so does a v1 text
    file, which must be imported with ``repro trace convert`` first.
    """
    import numpy as np

    path = Path(path)
    header = read_trace_v2_header(path)
    count = header["count"]
    layout, _ = _section_layout(
        [list(c) for c in header["columns"]], count, header["_data_start"]
    )
    arrays: dict[str, "np.ndarray"] = {}
    for name, dtype, offset, _ in layout:
        arrays[name] = np.memmap(
            path, dtype=np.dtype(dtype), mode="r", offset=offset, shape=(count,)
        ).view(np.ndarray)
    vpn = arrays["vpn"]
    if "is_write" in arrays:
        raw = arrays["is_write"]
        if raw.max(initial=0) > 1:
            raise TraceFormatError(f"{path}: is_write column holds non-0/1 bytes")
        is_write = raw.view(np.bool_)
    else:
        is_write = np.broadcast_to(np.bool_(False), (count,))
    if "think_ns" in arrays:
        think = arrays["think_ns"]
    else:
        think = np.broadcast_to(np.int64(header["think_ns"]), (count,))
    try:
        workload = ColumnarTraceWorkload(
            vpn,
            is_write,
            think,
            wss_pages=header["wss_pages"],
            think_ns=header["think_ns"],
            name=header["name"],
        )
    except ValueError as error:
        raise TraceFormatError(f"{path}: {error}") from None
    workload.source_path = path
    workload.provenance = dict(header.get("provenance", {}))
    return workload


class ColumnarTraceWorkload(Workload):
    """A recorded trace replayed straight from columnar arrays.

    :func:`open_trace_v2` hands it memory-mapped columns; the v1 text
    importer builds one from parsed columns to validate them before
    writing v2.  *validate* is off only where a test needs an
    out-of-range vpn to reach the engines.  :meth:`columnar_blocks` slices
    :class:`~repro.kernel.AccessBlock` views directly off the columns —
    zero copies beyond the views.
    """

    def __init__(
        self,
        vpn,
        is_write,
        think_ns_col,
        *,
        wss_pages: int,
        think_ns: int = 0,
        name: str = "recorded",
        validate: bool = True,
    ) -> None:
        if not (len(vpn) == len(is_write) == len(think_ns_col)):
            raise ValueError(
                "trace columns must share one length, got "
                f"{len(vpn)}/{len(is_write)}/{len(think_ns_col)}"
            )
        super().__init__(
            wss_pages=wss_pages, total_accesses=len(vpn), think_ns=think_ns
        )
        self.name = name
        if validate:
            lo, hi = int(vpn.min()), int(vpn.max())
            if lo < 0 or hi >= wss_pages:
                raise ValueError(
                    f"trace access vpn span [{lo}, {hi}] outside wss {wss_pages}"
                )
            if think_ns_col.min() < 0:
                raise ValueError("trace think_ns column holds a negative think time")
        self.vpn = vpn
        self.is_write = is_write
        self.think_ns_col = think_ns_col
        #: Set by :func:`open_trace_v2`: where the columns are mapped from.
        self.source_path: Path | None = None
        #: Capture provenance from the file header (may be empty).
        self.provenance: dict = {}

    def columnar_blocks(self, block_size: int | None = None):
        """Block views sliced straight off the columns (zero-copy)."""
        from repro.kernel.columnar import DEFAULT_BLOCK_SIZE, AccessBlock

        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        vpn, is_write, think = self.vpn, self.is_write, self.think_ns_col
        for start in range(0, len(vpn), block_size):
            stop = start + block_size
            yield AccessBlock(
                vpn=vpn[start:stop],
                is_write=is_write[start:stop],
                think_ns=think[start:stop],
            )

    def columns(self):
        """The raw ``(vpn, is_write, think_ns)`` arrays (analysis input)."""
        return self.vpn, self.is_write, self.think_ns_col
