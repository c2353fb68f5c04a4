"""CI perf-gate entry point: ``python -m repro.perf``.

Runs one profile from :data:`repro.perf.profile.PROFILES` — the Figure
13 mix (``--profile fig13``, the default), its burst-engine scale tier
(``fig13_scale``), the multi-server memory cluster (``cluster``), the
multi-tenant scenario set (``scenarios``), the governed-vs-static
control-plane A/B (``control``), or the million-access columnar-trace
lifecycle (``trace``: capture → mmap replay → vectorized analyze) —
writes ``BENCH_<profile>.json``, and — when ``--baseline`` is given —
fails (exit 1) if any gated metric regressed past the budget.  See
PERF_BUDGETS.md for the budgets and the waiver policy.

``python -m repro.perf compare <old.json> <new.json>`` (also reachable
as ``repro perf compare``) prints per-section deltas between two
artifacts — what the CI perf-gate step runs after the gate so a
reviewer sees *how far* every row moved, not just pass/fail.
"""

from __future__ import annotations

import argparse
import sys

from repro.perf.artifacts import (
    DEFAULT_GATED_METRICS,
    compare_artifacts,
    load_artifact,
    write_artifact,
)
from repro.perf.profile import PROFILES, run_profile
from repro.sim.machine import ENGINES


def add_perf_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the perf-gate options (single authority for defaults).

    The main ``repro`` CLI attaches these to its ``perf`` subcommand,
    so ``repro perf`` and ``python -m repro.perf`` can never drift.
    """
    parser.add_argument(
        "--profile",
        choices=list(PROFILES),
        default="fig13",
        help="which profile to run (default fig13)",
    )
    parser.add_argument("--out", default=".", help="directory for BENCH_<profile>.json")
    parser.add_argument("--baseline", help="baseline artifact to gate against")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed relative regression per gated metric (default 0.20)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="burst engine for the fig13, fig13_scale and trace profiles "
        "(default: object for fig13, vectorized for the others); "
        "simulated metrics are identical either way",
    )
    parser.add_argument(
        "--max-wall-clock",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail (exit 1) if the run's wall_clock_s exceeds this "
        "budget; opt-in because wall clock is host-dependent",
    )
    parser.add_argument(
        "--wss-pages",
        type=int,
        default=None,
        help="per-app working-set pages (default 2048; scenarios run at "
        "half, control at a quarter; fig13_scale and trace pin their own)",
    )
    parser.add_argument(
        "--accesses",
        type=int,
        default=None,
        help="accesses per app (default 8000; scenarios run at half, "
        "control at three quarters; fig13_scale and trace pin their own)",
    )
    parser.add_argument("--cores", type=int, default=None, help="simulated cores (default 4)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--servers",
        type=int,
        default=None,
        help="memory servers, cluster and scenarios profiles (default 4)",
    )
    sub = parser.add_subparsers(dest="perf_command")
    compare = sub.add_parser(
        "compare",
        help="print per-section metric deltas between two BENCH_*.json artifacts",
    )
    compare.add_argument("old", help="baseline artifact (e.g. BENCH_fig13_baseline.json)")
    compare.add_argument("new", help="current artifact (e.g. artifacts/BENCH_fig13.json)")
    compare.add_argument(
        "--all-metrics",
        action="store_true",
        help="show every shared numeric metric, not just the gated ones",
    )
    compare.set_defaults(handler=run_compare)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.perf",
        description="Emit a BENCH_<profile>.json perf artifact and optionally "
        "gate it against a committed baseline.",
    )
    add_perf_arguments(parser)
    return parser


def _format_delta(old: float, new: float) -> str:
    if old == new:
        return "unchanged"
    if not old:
        return f"{old:g} -> {new:g}"
    sign = "+" if new > old else ""
    return f"{old:g} -> {new:g} ({sign}{new / old - 1.0:.1%})"


def print_section_deltas(
    section: str,
    old_rows: dict,
    new_rows: dict,
    metrics=None,
    old_label: str = "old",
    new_label: str = "new",
) -> None:
    """Print one ``[section]`` block of per-row metric deltas.

    The single delta formatter shared by ``repro perf compare`` and
    ``repro obs diff``, so artifact rows and trace attribution rows
    read identically in CI logs.  *metrics* restricts the columns; None
    shows every numeric metric the two rows share.  Empty sections
    print nothing.
    """
    if not old_rows and not new_rows:
        return
    print(f"[{section}]")
    for name in sorted(set(old_rows) | set(new_rows)):
        if name not in old_rows:
            print(f"  {name}: new row (not in {old_label})")
            continue
        if name not in new_rows:
            print(f"  {name}: VANISHED (present only in {old_label})")
            continue
        row_old, row_new = old_rows[name], new_rows[name]
        keys = metrics
        if keys is None:
            keys = sorted(
                k
                for k in set(row_old) & set(row_new)
                if isinstance(row_old[k], (int, float))
                and not isinstance(row_old[k], bool)
            )
        shown = []
        for metric in keys:
            if metric not in row_old or metric not in row_new:
                continue
            shown.append(f"{metric} {_format_delta(row_old[metric], row_new[metric])}")
        if shown:
            print(f"  {name}: " + "; ".join(shown))


def _malformed(path: str, artifact: dict) -> str | None:
    """Why an artifact can't be compared (None when it is well-formed).

    The CI delta step must distinguish schema drift from a perf
    regression: a regression shows up as deltas against intact
    sections, while a missing/mangled section means the artifact shape
    itself changed and the comparison would silently print a partial
    table.  The latter is an error, not a delta.
    """
    apps = artifact.get("apps")
    if not isinstance(apps, dict) or not apps:
        return f"{path}: no 'apps' section (malformed or truncated artifact)"
    for section in ("apps", "servers"):
        rows = artifact.get(section, {})
        if not isinstance(rows, dict):
            return f"{path}: '{section}' section is not a mapping"
        for name, row in rows.items():
            if not isinstance(row, dict):
                return f"{path}: {section}[{name!r}] is not a metrics row"
    return None


def run_compare(args: argparse.Namespace) -> int:
    """Print per-section deltas between two artifacts.

    Exit codes: 0 deltas printed (regressions are the perf *gate*'s
    business, never this command's), 1 unreadable/old-schema input,
    2 structurally malformed input (missing or mangled sections).
    """
    try:
        old = load_artifact(args.old)
        new = load_artifact(args.new)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for path, artifact in ((args.old, old), (args.new, new)):
        reason = _malformed(path, artifact)
        if reason is not None:
            print(f"error: {reason}", file=sys.stderr)
            return 2
    metrics = None if args.all_metrics else DEFAULT_GATED_METRICS
    for section in ("apps", "servers"):
        print_section_deltas(
            section,
            old.get(section, {}),
            new.get(section, {}),
            metrics,
            old_label=args.old,
            new_label=args.new,
        )
    old_wall = old.get("wall_clock_s")
    new_wall = new.get("wall_clock_s")
    if old_wall is not None and new_wall is not None:
        print(
            f"[wall_clock_s] {_format_delta(old_wall, new_wall)} "
            "(host-dependent, not gated)"
        )
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute the perf profile + gate (or compare) for a namespace."""
    if getattr(args, "perf_command", None) == "compare":
        return run_compare(args)
    try:
        artifact, _ = run_profile(
            args.profile,
            seed=args.seed,
            cores=args.cores,
            wss_pages=args.wss_pages,
            accesses=args.accesses,
            servers=args.servers,
            engine=args.engine,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None
    path = write_artifact(artifact, args.out)
    print(f"wrote {path}")
    for name, row in sorted(artifact["apps"].items()):
        if "p50_us" not in row:
            # Trace-analyzer rows (trace/*, region/*) carry array
            # statistics, not latency percentiles; summarized below.
            continue
        print(
            f"  {name:<12} p50 {row['p50_us']:8.2f} us   p95 {row['p95_us']:8.2f} us   "
            f"p99 {row['p99_us']:8.2f} us   completion {row['completion_s']:.3f} s"
        )
    for name, row in sorted(artifact["apps"].items()):
        if "prefetchability" in row and name.startswith("trace/"):
            print(
                f"  {name}: seq {row['seq_frac']:.1%}  stride "
                f"{row['stride_frac']:.1%}  random {row['random_frac']:.1%}  "
                f"prefetchability {row['prefetchability']:.1%}"
            )
    for server_id, row in sorted(artifact.get("servers", {}).items()):
        print(
            f"  server:{server_id:<5} p50 {row['p50_us']:8.2f} us   "
            f"p95 {row['p95_us']:8.2f} us   p99 {row['p99_us']:8.2f} us   "
            f"reads {row['reads']:>6}   util {row['utilization']:.2%}"
        )
    control = artifact.get("control")
    if control:
        verdict = "BEATS" if control["governed_beats_static"] else "DOES NOT BEAT"
        print(
            f"  governed hit rate {control['governed_hit_rate']:.1%} {verdict} "
            f"best static {control['best_static']} "
            f"({control['best_static_hit_rate']:.1%}); "
            f"{len(control['decisions'])} policy swap(s)"
        )
    max_wall = getattr(args, "max_wall_clock", None)
    if max_wall is not None:
        wall = artifact.get("wall_clock_s")
        if wall is None:
            print("error: artifact records no wall_clock_s to budget")
            return 1
        if wall > max_wall:
            print(
                f"WALL-CLOCK BUDGET FAILED: {wall:.3f}s > {max_wall:.3f}s "
                "(budget is opt-in; see PERF_BUDGETS.md before raising it)"
            )
            return 1
        print(f"wall clock {wall:.3f}s within budget {max_wall:.3f}s")
    if args.baseline is None:
        return 0
    try:
        baseline = load_artifact(args.baseline)
    except (OSError, ValueError) as error:
        print(f"error: cannot load baseline {args.baseline}: {error}")
        return 1
    violations = compare_artifacts(
        artifact, baseline, max_regression=args.max_regression
    )
    if violations:
        print(
            f"PERF GATE FAILED ({len(violations)} violation(s), "
            f"gated metrics: {', '.join(DEFAULT_GATED_METRICS)}):"
        )
        for violation in violations:
            print(f"  {violation}")
        print("If the regression is intentional, update the baseline artifact")
        print("and justify it in the PR (see PERF_BUDGETS.md).")
        return 1
    print(f"perf gate OK (within {args.max_regression:.0%} of baseline)")
    return 0


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
