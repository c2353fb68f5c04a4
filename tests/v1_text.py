"""Write v1 text traces, the input of the v1 importer (``repro trace convert``)."""

from __future__ import annotations

from repro.trace.convert import convert_trace
from repro.trace.format import open_trace_v2


def write_v1_trace(
    path, accesses, *, wss_pages, think_ns=0, name="recorded", count=True
) -> int:
    """Write ``(vpn, is_write, think_ns)`` tuples as v1 text; returns the count.

    A think time other than the header default gets an explicit
    ``,t<ns>`` flag; *count* False omits the header's ``count`` field,
    as external tools do.
    """
    rows = []
    for vpn, is_write, think in accesses:
        flags = [str(vpn)] + ["w"] * bool(is_write)
        if think != think_ns:
            flags.append(f"t{think}")
        rows.append(",".join(flags))
    fields = f"wss_pages={wss_pages} think_ns={think_ns}"
    if count:
        fields += f" count={len(rows)}"
    path.write_text("\n".join(["# repro-trace v1", f"# {fields} name={name}", *rows]) + "\n")
    return len(rows)


def import_v1(path):
    """Import the v1 file at *path* beside it as v2 and open that."""
    v2 = path.with_suffix(".rtrace")
    convert_trace(path, v2)
    return open_trace_v2(v2)
