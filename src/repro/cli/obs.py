"""Observability command group: ``obs record|export|top|timeline|diff``.

The CLI face of the tracing layer (:mod:`repro.obs`): record a traced
run into a ``repro-obs-recording/1`` JSON document, export it to the
Chrome/Perfetto ``trace_event`` format or a columnar ``.npz``, print
the per-stage sim-time attribution (``top``) or the raw event stream
(``timeline``), and diff two recordings through the same delta printer
``repro perf compare`` uses.

Tracing never changes simulated results — ``record --check-untraced``
re-runs the target without the recorder and proves the payloads are
byte-identical, which is also what the CI ``obs`` lane asserts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.metrics.report import format_table
from repro.perf.profile import PROFILES, run_profile
from repro.provenance import canonical_json
from repro.sim.machine import ENGINES

__all__ = ["add_parsers"]


def add_parsers(sub) -> None:
    obs = sub.add_parser(
        "obs", help="record/inspect deterministic run traces (repro.obs)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    record = obs_sub.add_parser(
        "record",
        help="run a target with tracing enabled and write the recording JSON",
    )
    record.add_argument(
        "target",
        help="a traceable perf profile (fig13, fig13_scale) or a "
        "scenario name from `repro scenario list`",
    )
    record.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="profile burst engine (default: the profile's own); traces "
        "and payloads are identical either way",
    )
    record.add_argument("--seed", type=int, default=42)
    record.add_argument("--cores", type=int, default=4)
    record.add_argument(
        "--wss-pages",
        type=int,
        default=None,
        help="per-tenant working-set pages (default: the target's own)",
    )
    record.add_argument(
        "--accesses",
        type=int,
        default=None,
        help="total accesses per tenant (default: the target's own)",
    )
    record.add_argument(
        "--servers",
        type=int,
        default=0,
        help="memory servers (scenario targets only; 0 = flat fabric)",
    )
    record.add_argument(
        "--epoch-ms",
        type=float,
        default=1.0,
        help="timeseries sampling epoch in simulated ms (ignored when "
        "the scenario's control plane already defines one)",
    )
    record.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="recording path (default obs_<target>.json)",
    )
    record.add_argument(
        "--check-untraced",
        action="store_true",
        help="re-run without the recorder and fail unless the payloads "
        "are byte-identical",
    )
    record.add_argument(
        "--max-wall-clock",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail (exit 1) if the traced run's wall clock exceeds this "
        "budget; opt-in because wall clock is host-dependent",
    )
    record.set_defaults(handler=_record)

    export = obs_sub.add_parser(
        "export", help="export a recording to Perfetto JSON or columnar .npz"
    )
    export.add_argument("recording", help="a recording from `repro obs record`")
    export.add_argument(
        "--perfetto", metavar="FILE", help="write Chrome/Perfetto trace_event JSON"
    )
    export.add_argument(
        "--npz", metavar="FILE", help="write columnar .npz"
    )
    export.set_defaults(handler=_export)

    top = obs_sub.add_parser(
        "top", help="per-stage sim-time attribution of total fault time"
    )
    top.add_argument("recording", help="a recording from `repro obs record`")
    top.add_argument(
        "--min-attributed",
        type=float,
        default=None,
        metavar="PCT",
        help="fail (exit 1) unless stage spans attribute at least PCT%% "
        "of total fault time (the CI obs lane gates at 95)",
    )
    top.set_defaults(handler=_top)

    timeline = obs_sub.add_parser(
        "timeline", help="print the recorded event stream in time order"
    )
    timeline.add_argument("recording", help="a recording from `repro obs record`")
    timeline.add_argument(
        "--limit", type=int, default=40, help="events to show (default 40)"
    )
    timeline.set_defaults(handler=_timeline)

    diff = obs_sub.add_parser(
        "diff",
        help="per-stage deltas between two recordings (same printer as "
        "`repro perf compare`)",
    )
    diff.add_argument("old", help="baseline recording")
    diff.add_argument("new", help="current recording")
    diff.set_defaults(handler=_diff)


def _load(path: str) -> dict:
    from repro.obs import load_recording

    with open(path) as handle:
        return load_recording(json.load(handle))


def _record_profile(args: argparse.Namespace, observer):
    """Run a perf profile (traced when *observer* is set).

    Returns ``(payload, spec, engine, wall_clock_s)`` — the payload is
    the perf artifact with its host-dependent ``wall_clock_s`` removed,
    so traced/untraced payloads can be compared byte-for-byte.
    """
    artifact, _ = run_profile(
        args.target,
        seed=args.seed,
        cores=args.cores,
        wss_pages=args.wss_pages,
        accesses=args.accesses,
        servers=args.servers or None,
        engine=args.engine,
        observer=observer,
    )
    wall_clock_s = artifact.pop("wall_clock_s", None)
    config = dict(artifact["config"])
    return artifact, config, config["engine_impl"], wall_clock_s


def _record_scenario(args: argparse.Namespace, observer):
    """Run a named scenario (traced when *observer* is set)."""
    from repro.scenarios import run_scenario

    started = time.perf_counter()
    payload = run_scenario(
        args.target,
        seed=args.seed,
        cores=args.cores,
        servers=args.servers,
        wss_pages=args.wss_pages,
        total_accesses=args.accesses,
        observer=observer,
    )
    wall_clock_s = time.perf_counter() - started
    spec = {"scenario": args.target, **payload["config"]}
    return payload, spec, payload["config"]["engine"], wall_clock_s


def _record(args: argparse.Namespace) -> int:
    from repro.obs import RunRecorder, attribution_rows
    from repro.sim.units import ms

    runner = _record_profile if args.target in PROFILES else _record_scenario
    if runner is _record_scenario and args.engine is not None:
        print("error: --engine applies to profile targets only", file=sys.stderr)
        return 2
    recorder = RunRecorder(epoch_ns=ms(args.epoch_ms))
    try:
        payload, spec, engine, wall_clock_s = runner(args, recorder)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    recording = recorder.finish(payload, spec=spec, engine=engine, seed=args.seed)
    out = Path(args.out or f"obs_{args.target.replace('/', '_')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(canonical_json(recording) + "\n")
    rows, attributed, fault_time = attribution_rows(recording)
    epochs = len(recording["timeseries"].get("epoch", []))
    share = (attributed / fault_time) if fault_time else 1.0
    print(f"wrote {out}")
    print(
        f"  {recording['totals']['events']} events, {epochs} timeseries "
        f"epochs, {len(rows)} stages attributing {share:.1%} of "
        f"{fault_time / 1e6:.3f} ms simulated fault time"
    )
    if wall_clock_s is not None:
        print(f"  wall clock {wall_clock_s:.3f}s (traced)")
    if args.check_untraced:
        untraced, _, _, _ = runner(args, None)
        if canonical_json(untraced) == canonical_json(payload):
            print("  check-untraced: payloads byte-identical")
        else:
            print(
                "CHECK FAILED: traced payload differs from untraced run "
                "(tracing must never change simulated results)"
            )
            return 1
    if args.max_wall_clock is not None:
        if wall_clock_s is None:
            print("error: no wall clock measured to budget")
            return 1
        if wall_clock_s > args.max_wall_clock:
            print(
                f"WALL-CLOCK BUDGET FAILED: {wall_clock_s:.3f}s > "
                f"{args.max_wall_clock:.3f}s (see PERF_BUDGETS.md)"
            )
            return 1
        print(
            f"  wall clock within budget {args.max_wall_clock:.3f}s"
        )
    return 0


def _export(args: argparse.Namespace) -> int:
    from repro.obs.export import to_perfetto, write_npz

    if not args.perfetto and not args.npz:
        print("error: pass --perfetto FILE and/or --npz FILE", file=sys.stderr)
        return 2
    try:
        recording = _load(args.recording)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.perfetto:
        path = Path(args.perfetto)
        path.parent.mkdir(parents=True, exist_ok=True)
        trace = to_perfetto(recording)
        path.write_text(json.dumps(trace, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(trace['traceEvents'])} trace events)")
    if args.npz:
        print(f"wrote {write_npz(recording, args.npz)}")
    return 0


def _top(args: argparse.Namespace) -> int:
    from repro.obs import attribution_rows

    try:
        recording = _load(args.recording)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    rows, attributed, fault_time = attribution_rows(recording)
    provenance = recording["provenance"]
    print(
        format_table(
            ["stage", "total (ms)", "count", "share"],
            [
                (
                    row["stage"],
                    f"{row['total_ns'] / 1e6:.3f}",
                    row["count"],
                    f"{row['share']:.1%}",
                )
                for row in rows
            ],
            title=f"fault-time attribution — engine {provenance['engine']}, "
            f"seed {provenance['seed']}",
        )
    )
    share = (attributed / fault_time) if fault_time else 1.0
    print(
        f"\nattributed {attributed / 1e6:.3f} of {fault_time / 1e6:.3f} ms "
        f"total fault time ({share:.2%})"
    )
    if args.min_attributed is not None and share * 100.0 < args.min_attributed:
        print(
            f"ATTRIBUTION GATE FAILED: {share:.2%} < "
            f"{args.min_attributed:g}% (stage spans no longer cover the "
            "fault paths; see docs/trace-format.md)"
        )
        return 1
    return 0


def _timeline(args: argparse.Namespace) -> int:
    try:
        recording = _load(args.recording)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    names = recording["names"]
    tracks = recording["tracks"]
    events = recording["events"]
    spans = events["spans"]
    merged = [
        (start, dur, name, track, "span", dur)
        for name, track, start, dur in zip(
            spans["name"], spans["track"], spans["start_ns"], spans["dur_ns"]
        )
    ]
    for group, kind in (("instants", "instant"), ("counters", "counter")):
        section = events[group]
        merged.extend(
            (at, 0, name, track, kind, value)
            for name, track, at, value in zip(
                section["name"], section["track"], section["at_ns"], section["value"]
            )
        )
    merged.sort(key=lambda row: (row[0], row[1]))
    total = len(merged)
    rows = []
    for at, _, name, track, kind, value in merged[: args.limit]:
        detail = f"{value / 1e3:.2f} us" if kind == "span" else f"value {value}"
        rows.append(
            (
                f"{at / 1e6:.4f}",
                tracks.get(str(track), str(track)),
                kind,
                names[name],
                detail,
            )
        )
    print(
        format_table(
            ["at (ms)", "track", "kind", "event", "detail"],
            rows,
            title=f"first {min(args.limit, total)} of {total} events",
        )
    )
    return 0


def _diff(args: argparse.Namespace) -> int:
    from repro.obs import attribution_rows
    from repro.perf.__main__ import print_section_deltas

    try:
        old = _load(args.old)
        new = _load(args.new)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    sections = []
    for recording in (old, new):
        rows, attributed, fault_time = attribution_rows(recording)
        stage_rows = {
            row["stage"]: {
                "total_ns": row["total_ns"],
                "count": row["count"],
                "share_pct": round(row["share"] * 100.0, 2),
            }
            for row in rows
        }
        totals = {
            "run": {
                "fault_time_ns": fault_time,
                "attributed_ns": attributed,
                "events": recording["totals"]["events"],
            }
        }
        sections.append((stage_rows, totals))
    (old_stages, old_totals), (new_stages, new_totals) = sections
    print_section_deltas(
        "stages", old_stages, new_stages, None, old_label=args.old, new_label=args.new
    )
    print_section_deltas(
        "totals", old_totals, new_totals, None, old_label=args.old, new_label=args.new
    )
    old_rev = old["provenance"]["code_rev"]
    new_rev = new["provenance"]["code_rev"]
    if old_rev != new_rev:
        print(f"[provenance] code_rev {old_rev[:12]} -> {new_rev[:12]}")
    return 0
