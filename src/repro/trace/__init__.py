"""Production-scale columnar traces: capture, replay, convert, analyze.

The paper's prefetcher is evaluated on real application access traces;
this package makes multi-million-access traces first-class inputs
instead of line-oriented text.  A **repro-trace v2** file is a binary
container — int64 ``vpn``, uint8 ``is_write``, and int64 ``think_ns``
columns behind a JSON metadata header — that opens memory-mapped in
milliseconds and replays through the vectorized burst kernel with zero
copies beyond the block views (:mod:`repro.trace.format`).

The sibling modules cover the trace lifecycle:

* :mod:`repro.trace.capture` — freeze any workload (or scenario
  tenant) into a v2 file straight from its columnar block stream, no
  per-access object detour;
* :mod:`repro.trace.convert` — read v2 metadata without loading the
  data, and import v1 text traces into v2 (the only reader of v1);
* :mod:`repro.trace.analyze` — the vectorized analysis kernel behind
  ``repro trace analyze``: reuse-distance distributions, stride
  histograms, write fractions, and per-region prefetchability scores
  as pure array ops, emitted in the ``BENCH_*``-style section JSON
  that ``repro perf compare`` diffs.

Everything here is deterministic (lint rules R1/R2 cover this package).
Only v2 replays, lists, analyzes or submits; a v1 text file given to
any of those raises :class:`~repro.trace.format.TraceFormatError`
telling the caller to import it with ``repro trace convert``.
"""

from repro.trace.analyze import analyze_columns, analyze_trace_file
from repro.trace.capture import capture_scenario_tenant, capture_workload
from repro.trace.convert import (
    convert_trace,
    read_trace_meta,
    sniff_trace,
    trace_tenant_scenario,
)
from repro.trace.format import (
    ColumnarTraceWorkload,
    TraceFormatError,
    open_trace_v2,
    read_trace_v2_header,
    write_trace_v2,
)

__all__ = [
    "ColumnarTraceWorkload",
    "TraceFormatError",
    "analyze_columns",
    "analyze_trace_file",
    "capture_scenario_tenant",
    "capture_workload",
    "convert_trace",
    "open_trace_v2",
    "read_trace_meta",
    "read_trace_v2_header",
    "sniff_trace",
    "trace_tenant_scenario",
    "write_trace_v2",
]
