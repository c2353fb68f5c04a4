"""Vectorized trace analysis: the kernel behind ``repro trace analyze``.

Everything here is pure array math over the three trace columns — no
per-access Python objects, no dict-of-lists accumulators — so analyzing
a million-access trace costs a handful of numpy passes:

* **Reuse distances** via one stable argsort by vpn: consecutive
  positions of the same page in the sorted order are successor indices,
  and their index gaps *are* the reuse distances (accesses between
  touches of the same page).  Percentiles and cumulative ``reuse_le_*``
  fractions summarize the distribution.
* **Stride mix** via one ``np.diff``: sequential (+1), repeat (0),
  short-stride (|Δ| ≤ 64), and random fractions, plus cumulative
  ``stride_le_*`` fractions of the non-zero jump magnitudes.
* **Per-region prefetchability** via ``np.bincount`` over region ids:
  each of *regions* equal slices of the working set gets its access
  share, write fraction, sequential fraction, and a prefetchability
  score — ``seq_frac + 0.5 * stride_frac``, the share of accesses
  Leap-style majority stride detection can cover.

The result is a schema-1 ``BENCH_*``-style artifact (``apps`` rows keyed
``trace/<name>`` and ``region/<i>``), so ``repro perf compare`` diffs
two analyses exactly like two perf runs.
"""

from __future__ import annotations

from pathlib import Path

from repro.perf.artifacts import ARTIFACT_SCHEMA_VERSION

__all__ = ["analyze_columns", "analyze_trace_file"]

#: Cumulative distribution thresholds reported for reuse distances and
#: stride magnitudes (``*_le_<t>`` row keys).
CDF_THRESHOLDS = (8, 64, 512, 4096)

#: |Δvpn| at or below this counts as a short stride (prefetchable by a
#: majority-stride window); beyond it the jump is classified random.
SHORT_STRIDE = 64


def _reuse_distances(vpn):
    """Index gaps between consecutive touches of the same page.

    One stable argsort groups each page's positions contiguously while
    preserving their original order, so ``order[i+1] - order[i]`` within
    a group is the number of accesses between two touches (successor
    index minus current index).  Returns (distances, unique_pages).
    """
    import numpy as np

    order = np.argsort(vpn, kind="stable")
    sorted_vpn = vpn[order]
    same = sorted_vpn[1:] == sorted_vpn[:-1]
    distances = (order[1:] - order[:-1])[same]
    unique_pages = int(len(vpn) - np.count_nonzero(same))
    return distances, unique_pages


def _cdf_fractions(values, prefix: str) -> dict:
    """``{prefix}_le_<t>`` cumulative fractions at the fixed thresholds."""
    import numpy as np

    row = {}
    total = len(values)
    for threshold in CDF_THRESHOLDS:
        key = f"{prefix}_le_{threshold}"
        if total == 0:
            row[key] = 0.0
        else:
            row[key] = round(
                int(np.count_nonzero(values <= threshold)) / total, 6
            )
    return row


def _percentile_row(values, prefix: str) -> dict:
    import numpy as np

    if len(values) == 0:
        return {f"{prefix}_p50": 0.0, f"{prefix}_p90": 0.0, f"{prefix}_p99": 0.0}
    p50, p90, p99 = np.percentile(values, (50, 90, 99))
    return {
        f"{prefix}_p50": round(float(p50), 3),
        f"{prefix}_p90": round(float(p90), 3),
        f"{prefix}_p99": round(float(p99), 3),
    }


def _region_row(
    count: int,
    total: int,
    writes: int,
    seq: int,
    short: int,
    pages: int,
    region_pages: int,
) -> dict:
    """One ``region/<i>`` artifact row (all values plain numbers)."""
    accesses = max(1, count)
    seq_frac = seq / accesses
    stride_frac = short / accesses
    return {
        "accesses": count,
        "share": round(count / max(1, total), 6),
        "write_frac": round(writes / accesses, 6),
        "seq_frac": round(seq_frac, 6),
        "stride_frac": round(stride_frac, 6),
        "touched_pages": pages,
        "coverage": round(pages / max(1, region_pages), 6),
        "prefetchability": round(min(1.0, seq_frac + 0.5 * stride_frac), 6),
    }


def analyze_columns(
    vpn,
    is_write,
    think_ns,
    *,
    wss_pages: int,
    name: str = "trace",
    regions: int = 8,
    extra_config: dict | None = None,
) -> dict:
    """Analyze trace columns; returns a ``BENCH_*``-style artifact dict.

    The global row lands in ``apps["trace/<name>"]``; per-region rows in
    ``apps["region/<i>"]``.  Every row value is a plain number, so the
    artifact diffs cleanly under ``repro perf compare`` and a selected
    metric can be gated like any perf metric.
    """
    import numpy as np

    vpn = np.asarray(vpn)
    count = len(vpn)
    if count == 0:
        raise ValueError("cannot analyze an empty trace")
    if not 1 <= regions <= wss_pages:
        raise ValueError(f"regions must be in [1, wss_pages], got {regions}")
    is_write = np.asarray(is_write)
    think_ns = np.asarray(think_ns)

    distances, unique_pages = _reuse_distances(vpn)
    deltas = np.diff(vpn)
    jumps = max(1, len(deltas))
    seq_mask = deltas == 1
    repeat_mask = deltas == 0
    abs_delta = np.abs(deltas)
    short_mask = (abs_delta > 1) & (abs_delta <= SHORT_STRIDE)
    seq_frac = int(np.count_nonzero(seq_mask)) / jumps
    stride_frac = int(np.count_nonzero(short_mask)) / jumps

    trace_row = {
        "accesses": count,
        "unique_pages": unique_pages,
        "footprint_frac": round(unique_pages / wss_pages, 6),
        "first_touch_frac": round(unique_pages / count, 6),
        "write_frac": round(int(np.count_nonzero(is_write)) / count, 6),
        "think_ns_mean": round(float(think_ns.mean()), 3),
        "seq_frac": round(seq_frac, 6),
        "repeat_frac": round(int(np.count_nonzero(repeat_mask)) / jumps, 6),
        "stride_frac": round(stride_frac, 6),
        "random_frac": round(
            int(np.count_nonzero(abs_delta > SHORT_STRIDE)) / jumps, 6
        ),
        "prefetchability": round(min(1.0, seq_frac + 0.5 * stride_frac), 6),
    }
    trace_row.update(_percentile_row(distances, "reuse"))
    trace_row.update(_cdf_fractions(distances, "reuse"))
    trace_row.update(_cdf_fractions(abs_delta[abs_delta > 0], "stride"))

    # Per-region reduction: one bincount per quantity, regions ≤ wss.
    region_id = np.minimum(vpn * regions // wss_pages, regions - 1)
    counts = np.bincount(region_id, minlength=regions)
    writes = np.bincount(region_id[is_write], minlength=regions)
    dest = region_id[1:]
    seq_counts = np.bincount(dest[seq_mask], minlength=regions)
    short_counts = np.bincount(dest[short_mask], minlength=regions)
    touched = np.bincount(
        np.minimum(np.unique(vpn) * regions // wss_pages, regions - 1),
        minlength=regions,
    )
    region_pages = -(-wss_pages // regions)

    apps = {f"trace/{name}": trace_row}
    for index in range(regions):
        apps[f"region/{index}"] = _region_row(
            int(counts[index]),
            count,
            int(writes[index]),
            int(seq_counts[index]),
            int(short_counts[index]),
            int(touched[index]),
            region_pages,
        )
    config = {
        "trace": name,
        "wss_pages": int(wss_pages),
        "accesses": count,
        "regions": int(regions),
        "short_stride": SHORT_STRIDE,
    }
    if extra_config:
        config.update(extra_config)
    return {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "bench": "trace_analyze",
        "engine": "analyze",
        "config": config,
        "apps": apps,
    }


def analyze_trace_file(path: str | Path, *, regions: int = 8) -> dict:
    """Analyze a v2 trace file into an artifact dict."""
    from repro.trace.format import open_trace_v2

    path = Path(path)
    workload = open_trace_v2(path)
    vpn, is_write, think = workload.columns()
    return analyze_columns(
        vpn,
        is_write,
        think,
        wss_pages=workload.wss_pages,
        name=workload.name,
        regions=regions,
        extra_config={"source": path.name},
    )
