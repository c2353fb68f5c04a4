"""Service command group: ``service submit|status|result|worker|gc``.

The long-running face of the reproduction: submit scenario/sweep jobs
into a persistent queue, run worker processes that fan sweep cells
across host cores, poll streamed progress, fetch verified
content-addressed results, and garbage-collect unreferenced blobs.
All commands share ``--root`` (default ``$REPRO_SERVICE_ROOT`` or
``.repro-service``), so any number of submitters and workers can meet
at one directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.cli.common import int_list

__all__ = ["add_parsers"]

DEFAULT_ROOT = ".repro-service"


def _root_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--root",
        default=os.environ.get("REPRO_SERVICE_ROOT", DEFAULT_ROOT),
        help="service state directory (queue + artifact store); "
        "defaults to $REPRO_SERVICE_ROOT or .repro-service",
    )


def add_parsers(sub) -> None:
    service = sub.add_parser(
        "service", help="run service: queued jobs, pooled workers, stored artifacts"
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)

    submit = service_sub.add_parser(
        "submit", help="submit a scenario run or a sweep; cache hits return instantly"
    )
    submit.add_argument(
        "scenarios",
        nargs="+",
        metavar="SCENARIO",
        help="registered scenario name(s), or path(s) to Scenario JSON files",
    )
    submit.add_argument("--sweep", action="store_true",
                        help="sweep a {cores x servers x prefetchers} grid")
    submit.add_argument("--seed", type=int, default=42)
    submit.add_argument("--cores", type=int_list, default=[4], metavar="N[,N]")
    submit.add_argument("--servers", type=int_list, default=None, metavar="N[,N]",
                        help="default: 0 for a scenario run, 2 for a sweep")
    submit.add_argument("--prefetchers", default=None, metavar="P[,P]",
                        help="prefetcher (scenario run) or comma list (sweep)")
    submit.add_argument("--wss-pages", type=int, default=None,
                        help="per-tenant working set (named scenarios only)")
    submit.add_argument("--accesses", type=int, default=None,
                        help="scenario access budget (named scenarios only)")
    submit.add_argument("--pool", type=int, default=2,
                        help="worker processes a sweep fans cells across")
    submit.add_argument("--trace", action="store_true",
                        help="record a deterministic trace (scenario jobs "
                        "only), stored as a content-addressed extra; fetch "
                        "with `service result --trace-out`")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes (needs a running worker)")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait poll budget in seconds")
    submit.add_argument("--json", action="store_true")
    _root_argument(submit)
    submit.set_defaults(handler=_submit)

    status = service_sub.add_parser("status", help="show a job's state and progress")
    status.add_argument("job_id")
    status.add_argument("--json", action="store_true")
    _root_argument(status)
    status.set_defaults(handler=_status)

    result = service_sub.add_parser(
        "result", help="fetch a finished job's stored (verified) payload"
    )
    result.add_argument("job_id")
    result.add_argument("--json", action="store_true")
    result.add_argument(
        "--artifact",
        metavar="FILE",
        help="also write a BENCH-shaped artifact for `repro perf compare`",
    )
    result.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the stored trace recording (submitted with --trace) "
        "for `repro obs top|export|diff`",
    )
    _root_argument(result)
    result.set_defaults(handler=_result)

    worker = service_sub.add_parser(
        "worker", help="claim and execute queued jobs until told to stop"
    )
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after this many jobs")
    worker.add_argument("--idle-timeout", type=float, default=None,
                        help="exit after the queue stays empty this long (s)")
    worker.add_argument("--poll-interval", type=float, default=0.5)
    worker.add_argument("--pool", type=int, default=None,
                        help="override sweep jobs' worker-pool size")
    _root_argument(worker)
    worker.set_defaults(handler=_worker)

    gc = service_sub.add_parser(
        "gc", help="remove payload blobs no stored run references"
    )
    gc.add_argument("--json", action="store_true")
    _root_argument(gc)
    gc.set_defaults(handler=_gc)


def _load_scenario_arg(token: str):
    """A submit operand: a registered name, a Scenario JSON file, or a
    v2 trace file replayed as a single-tenant scenario.  Trace files are
    sniffed by magic, so a v1 text trace is refused with the hint to
    import it rather than parsed as JSON."""
    if token.endswith(".json") or Path(token).is_file():
        from repro.trace.convert import sniff_trace, trace_tenant_scenario

        # Validate eagerly so a bad file fails at submit, not in a worker.
        from repro.scenarios import Scenario

        if Path(token).is_file() and sniff_trace(token):
            data = trace_tenant_scenario(token)
        else:
            data = json.loads(Path(token).read_text())
        return Scenario.from_dict(data).to_dict()
    return token


def _build_spec(args: argparse.Namespace):
    from repro.service import ScenarioJob, SweepJob

    scenarios = [_load_scenario_arg(token) for token in args.scenarios]
    if args.sweep:
        if args.trace:
            raise ValueError(
                "--trace applies to scenario jobs only (a sweep's cells "
                "run in pool workers; record one cell as a scenario job)"
            )
        grid = {}
        if args.prefetchers:  # else SweepJob's default axis
            grid["prefetchers"] = tuple(p for p in args.prefetchers.split(",") if p)
        return SweepJob(
            scenarios=tuple(scenarios),
            cores=tuple(args.cores),
            servers=tuple(args.servers if args.servers is not None else [2]),
            seed=args.seed,
            wss_pages=args.wss_pages,
            total_accesses=args.accesses,
            pool=args.pool,
            **grid,
        )
    if len(scenarios) != 1:
        raise ValueError("a scenario job takes exactly one scenario (or use --sweep)")
    for axis, values in (("--cores", args.cores), ("--servers", args.servers or [0])):
        if len(values) != 1:
            raise ValueError(f"{axis} takes one value without --sweep")
    if args.prefetchers and "," in args.prefetchers:
        raise ValueError("--prefetchers takes one value without --sweep")
    return ScenarioJob(
        scenario=scenarios[0],
        seed=args.seed,
        cores=args.cores[0],
        servers=(args.servers or [0])[0],
        prefetcher=args.prefetchers or None,
        wss_pages=args.wss_pages,
        total_accesses=args.accesses,
        trace=args.trace,
    )


def _print_record(status: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return
    line = (
        f"job {status['id']}  state={status['state']}  "
        f"run_key={status['run_key'][:12]}  cache_hit={status['cache_hit']}"
    )
    progress = status.get("progress")
    if progress and progress.get("total"):
        line += f"  cells {progress['done']}/{progress['total']}"
    print(line)
    if status.get("error"):
        print(f"error: {status['error'].strip().splitlines()[-1]}", file=sys.stderr)


def _submit(args: argparse.Namespace) -> int:
    from repro.service import RunService

    try:
        spec = _build_spec(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service = RunService(args.root)
    record = service.submit(spec)
    if args.wait and record.state not in ("done", "failed"):
        deadline = time.monotonic() + args.timeout
        last_done = -1
        status = service.status(record.id)
        while time.monotonic() < deadline:
            status = service.status(record.id)
            progress = status.get("progress") or {}
            if not args.json and progress.get("done", 0) != last_done:
                last_done = progress.get("done", 0)
                if progress.get("total"):
                    print(f"progress: {last_done}/{progress['total']} cells")
            if status["state"] in ("done", "failed"):
                break
            time.sleep(0.5)
        else:
            print(f"error: job {record.id} still running after "
                  f"{args.timeout:.0f}s", file=sys.stderr)
            return 3
        _print_record(status, args.json)
        return 0 if status["state"] == "done" else 1
    _print_record(service.status(record.id), args.json)
    return 0


def _status(args: argparse.Namespace) -> int:
    from repro.service import RunService

    service = RunService(args.root)
    try:
        status = service.status(args.job_id)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    _print_record(status, args.json)
    return 0 if status["state"] != "failed" else 1


def _result(args: argparse.Namespace) -> int:
    from repro.service import RunService, payload_to_artifact
    from repro.service.store import ArtifactIntegrityError

    service = RunService(args.root)
    try:
        meta, payload = service.result(args.job_id)
    except (KeyError, ValueError, ArtifactIntegrityError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.artifact:
        path = Path(args.artifact)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload_to_artifact(meta, payload), indent=2, sort_keys=True)
            + "\n"
        )
        if not args.json:
            print(f"wrote {path}")
    if args.trace_out:
        from repro.provenance import canonical_json

        try:
            recording = service.store.get_extra(meta["run_key"], "trace")
        except (KeyError, ArtifactIntegrityError) as error:
            print(
                f"error: {error} (was the job submitted with --trace?)",
                file=sys.stderr,
            )
            return 2
        path = Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(canonical_json(recording) + "\n")
        if not args.json:
            print(f"wrote {path}")
    if args.json:
        print(json.dumps({"meta": meta, "payload": payload}, indent=2, sort_keys=True))
        return 0
    print(
        f"run {meta['run_key'][:12]}  kind={meta['kind']}  seed={meta['seed']}  "
        f"code_rev={meta['code_rev'][:12]}  blob={meta['blob'][:12]} "
        f"({meta['payload_bytes']} bytes)"
    )
    runs = payload.get("runs")
    if runs is not None:
        for run in runs:
            worst_p95 = max(row["p95_us"] for row in run["tenants"].values())
            print(
                f"  {run['scenario']} c{run['cores']} s{run['servers']} "
                f"{run['prefetcher']}: worst p95 {worst_p95:.2f} us, "
                f"makespan {run['totals']['makespan_s']:.3f} s"
            )
    else:
        for tenant, row in payload["tenants"].items():
            print(
                f"  {tenant}: p95 {row['p95_us']:.2f} us, "
                f"hit rate {row['hit_rate']:.1%}, "
                f"completion {row['completion_s']:.3f} s"
            )
    return 0


def _worker(args: argparse.Namespace) -> int:
    from repro.service import RunService

    service = RunService(args.root)
    processed = service.run_worker(
        max_jobs=args.max_jobs,
        idle_timeout=args.idle_timeout,
        poll_interval=args.poll_interval,
        pool=args.pool,
        log=print,
    )
    print(f"worker exiting after {processed} job(s)")
    return 0


def _gc(args: argparse.Namespace) -> int:
    from repro.service import RunService

    removed = RunService(args.root).gc()
    if args.json:
        print(json.dumps({"removed": removed}, indent=2, sort_keys=True))
    else:
        print(f"gc removed {len(removed)} unreferenced blob(s)")
    return 0
