"""Trace command group: ``trace list|capture|replay|analyze|convert``.

The CLI face of :mod:`repro.trace`: inspect v2 trace files, capture
any workload or scenario tenant into a v2 columnar file, replay a
trace through the machine on either burst engine, run the vectorized
analyzer, and import v1 text traces into v2 (``convert``, the only
command that reads v1; the others refuse it with exit 2, ``list``
with 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli.common import WORKLOADS
from repro.sim.machine import ENGINES

__all__ = ["add_parsers"]


def add_parsers(sub) -> None:
    trace = sub.add_parser(
        "trace", help="trace files: inspect, capture, replay, analyze, convert"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    lst = trace_sub.add_parser("list", help="show metadata of trace files")
    lst.add_argument("paths", nargs="+", metavar="PATH",
                     help="trace files or directories to scan")
    lst.add_argument("--json", action="store_true")
    lst.set_defaults(handler=_list)

    capture = trace_sub.add_parser(
        "capture", help="freeze a workload or scenario tenant into a v2 trace"
    )
    capture.add_argument("out", metavar="OUT", help="output .rtrace path")
    source = capture.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=sorted(WORKLOADS))
    source.add_argument("--scenario", metavar="NAME",
                        help="registered scenario to capture a tenant of")
    capture.add_argument("--tenant", metavar="NAME",
                         help="tenant name (required with --scenario)")
    capture.add_argument("--wss-pages", type=int, default=8_192)
    capture.add_argument("--accesses", type=int, default=100_000)
    capture.add_argument("--seed", type=int, default=42)
    capture.add_argument("--think-ns", type=int, default=1_000)
    capture.add_argument("--write-fraction", type=float, default=0.0)
    capture.add_argument("--param", action="append", default=[], metavar="K=V",
                         help="extra workload parameter (repeatable), e.g. "
                         "stride=7 or append_pages=32")
    capture.add_argument("--json", action="store_true")
    capture.set_defaults(handler=_capture)

    replay = trace_sub.add_parser(
        "replay", help="replay a trace file through the Leap machine"
    )
    replay.add_argument("path", metavar="TRACE")
    replay.add_argument("--engine", choices=ENGINES,
                        default="vectorized")
    replay.add_argument("--memory", type=float, default=0.5,
                        help="local memory as a fraction of the working set")
    replay.add_argument("--seed", type=int, default=42)
    replay.add_argument("--json", action="store_true")
    replay.set_defaults(handler=_replay)

    analyze = trace_sub.add_parser(
        "analyze", help="vectorized trace analysis (reuse, strides, regions)"
    )
    analyze.add_argument("path", metavar="TRACE")
    analyze.add_argument("--regions", type=int, default=8)
    analyze.add_argument("--out", metavar="FILE",
                         help="write the artifact JSON here as well")
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(handler=_analyze)

    convert = trace_sub.add_parser(
        "convert", help="import a v1 text trace as a v2 binary trace"
    )
    convert.add_argument("src", metavar="SRC")
    convert.add_argument("dst", metavar="DST")
    convert.add_argument("--json", action="store_true")
    convert.set_defaults(handler=_convert)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _meta_line(path: Path, meta: dict) -> str:
    return (
        f"{path}  [{meta['format']}]  name={meta['name']}  "
        f"count={meta['count']}  wss_pages={meta['wss_pages']}  "
        f"think_ns={meta['think_ns']}"
    )


def _list(args: argparse.Namespace) -> int:
    from repro.trace.convert import read_trace_meta, sniff_trace

    files: list[Path] = []
    for token in args.paths:
        path = Path(token)
        if path.is_dir():
            files.extend(
                child
                for child in sorted(path.iterdir())
                if child.is_file() and sniff_trace(child)
            )
        else:
            files.append(path)
    if not files:
        return _fail("no trace files found")
    rows = []
    status = 0
    for path in files:
        try:
            meta = read_trace_meta(path)
        except (OSError, ValueError) as error:
            status = 1
            if not args.json:
                # Trace-format errors already lead with the path.
                message = str(error)
                if not message.startswith(f"{path}: "):
                    message = f"{path}: {message}"
                print(f"error: {message}", file=sys.stderr)
            continue
        rows.append((path, meta))
    if args.json:
        print(json.dumps(
            {str(path): meta for path, meta in rows}, indent=2, sort_keys=True
        ))
    else:
        for path, meta in rows:
            print(_meta_line(path, meta))
    return status


def _parse_params(tokens: list[str]) -> dict:
    params: dict = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ValueError(f"--param expects K=V, got {token!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def _capture(args: argparse.Namespace) -> int:
    from repro.trace.capture import capture_scenario_tenant, capture_workload

    try:
        params = _parse_params(args.param)
        if args.scenario:
            if not args.tenant:
                return _fail("--scenario needs --tenant NAME")
            header = capture_scenario_tenant(
                args.scenario,
                args.tenant,
                args.out,
                seed=args.seed,
                wss_pages=args.wss_pages,
                total_accesses=args.accesses,
            )
        else:
            if args.write_fraction > 0.0:
                params["write_fraction"] = args.write_fraction
            workload = WORKLOADS[args.workload](
                wss_pages=args.wss_pages,
                total_accesses=args.accesses,
                seed=args.seed,
                think_ns=args.think_ns,
                **params,
            )
            header = capture_workload(workload, args.out)
    except (ValueError, TypeError, OSError) as error:
        return _fail(str(error))
    if args.json:
        print(json.dumps(header, indent=2, sort_keys=True))
    else:
        print(f"wrote {args.out}: {header['count']} accesses "
              f"({len(header['columns'])} columns)")
    return 0


def _replay(args: argparse.Namespace) -> int:
    import time

    from repro.sim.machine import Machine, leap_config
    from repro.sim.simulate import simulate
    from repro.trace.format import open_trace_v2

    try:
        workload = open_trace_v2(args.path)
    except (OSError, ValueError) as error:
        return _fail(str(error))
    machine = Machine(leap_config(seed=args.seed, engine=args.engine))
    started = time.perf_counter()
    result = simulate(machine, {1: workload}, memory_fraction=args.memory)
    wall_clock_s = time.perf_counter() - started
    summary = result.recorder.summary()
    metrics = result.metrics
    row = {
        "trace": workload.name,
        "engine": args.engine,
        "accesses": workload.total_accesses,
        "completion_s": round(result.completion_seconds(1), 6),
        "p50_us": round(summary.get("p50", 0.0) / 1e3, 3),
        "p99_us": round(summary.get("p99", 0.0) / 1e3, 3),
        "faults": metrics.faults,
        "misses": metrics.misses,
        "coverage": metrics.coverage,
        "accuracy": metrics.accuracy,
        "wall_clock_s": round(wall_clock_s, 3),
    }
    if args.json:
        print(json.dumps(row, indent=2, sort_keys=True))
    else:
        print(
            f"{row['trace']} ({row['accesses']} accesses, {args.engine}): "
            f"completion {row['completion_s']:.4f} s, p50 {row['p50_us']:.2f} us, "
            f"p99 {row['p99_us']:.2f} us, {row['faults']} faults "
            f"[{row['wall_clock_s']:.3f} s wall]"
        )
    return 0


def _analyze(args: argparse.Namespace) -> int:
    from repro.trace.analyze import analyze_trace_file

    try:
        artifact = analyze_trace_file(args.path, regions=args.regions)
    except (OSError, ValueError) as error:
        return _fail(str(error))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    if args.json:
        print(json.dumps(artifact, indent=2, sort_keys=True))
        return 0
    name = artifact["config"]["trace"]
    row = artifact["apps"][f"trace/{name}"]
    print(
        f"{name}: {row['accesses']} accesses over {row['unique_pages']} pages "
        f"({row['footprint_frac']:.1%} of wss)"
    )
    print(
        f"  mix: seq {row['seq_frac']:.1%}  stride {row['stride_frac']:.1%}  "
        f"repeat {row['repeat_frac']:.1%}  random {row['random_frac']:.1%}  "
        f"writes {row['write_frac']:.1%}"
    )
    print(
        f"  reuse distance: p50 {row['reuse_p50']:.0f}  p90 {row['reuse_p90']:.0f}  "
        f"p99 {row['reuse_p99']:.0f}  (<=64: {row['reuse_le_64']:.1%})"
    )
    print(f"  prefetchability: {row['prefetchability']:.1%}")
    for key in sorted(artifact["apps"]):
        if key.startswith("region/"):
            region = artifact["apps"][key]
            print(
                f"  {key}: share {region['share']:.1%}  "
                f"seq {region['seq_frac']:.1%}  "
                f"prefetchability {region['prefetchability']:.1%}"
            )
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _convert(args: argparse.Namespace) -> int:
    from repro.trace.convert import convert_trace

    try:
        meta = convert_trace(args.src, args.dst)
    except (OSError, ValueError) as error:
        return _fail(str(error))
    if args.json:
        print(json.dumps(meta, indent=2, sort_keys=True))
    else:
        print(f"wrote {args.dst} [{meta['format']}]: {meta['count']} accesses")
    return 0
