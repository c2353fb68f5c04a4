#!/usr/bin/env python3
"""Paired comparison of two sets of benchmark records.

    python3 perfbench/compare.py PARENT_DIR/ CHANGE_DIR/

Each directory holds records written by ``perfbench/run.py --out``.
Records pair by (workload, seed, trace).  For every workload and
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

* host metrics (measured, noisy):
  ``improved`` when the change wins at least 90% of pairs and the medians
  differ by more than the parent's own quartile spread; ``regressed``
  when the change's median is worse than the parent's by more than the
  metric's bound; ``unresolved`` when the parent's spread is wider than
  the bound and not every change run beats every parent run;
  ``unchanged`` otherwise.
* simulated metrics (``sim_*``, deterministic per seed): ``unchanged``
  only when every pair is identical, ``improved`` when every differing
  pair is better, ``regressed`` otherwise.

Records made at a non-default ``--scale`` are skipped.  The
exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import load_spec  # noqa: E402

#: Share of pairs a change must win to count as an improvement.
WIN_SHARE = 0.9


def load_records(directory: Path) -> dict[tuple, dict]:
    """Comparable records in *directory*, keyed by (workload, seed, trace)."""
    records = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["scale"] != 1.0:
            print(f"skipping {path}: smoke-scale record", file=sys.stderr)
            continue
        if record["end_to_end"] is None:
            print(f"skipping {path}: the run produced no metrics", file=sys.stderr)
            continue
        records[(record["workload"], record["seed"], record["trace"])] = record
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, pairs: list[tuple[float, float]]) -> dict:
    """Compare (parent, change) value pairs of one metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    parent = [a for a, _ in pairs]
    change = [b for _, b in pairs]
    a_q1, a_med, a_q3 = quartiles(parent)
    b_q1, b_med, b_q3 = quartiles(change)
    gains = [(b - a) * sign for a, b in pairs]
    won = sum(gain > 0 for gain in gains) / len(pairs)
    gain = (b_med - a_med) * sign
    spread = a_q3 - a_q1
    every_run_better = min(b * sign for b in change) > max(a * sign for a in parent)
    if metric["name"].startswith("sim_"):
        if all(g == 0 for g in gains):
            outcome = "unchanged"
        elif all(g >= 0 for g in gains):
            outcome = "improved"
        else:
            outcome = "regressed"
    elif won >= WIN_SHARE and gain > spread:
        outcome = "improved"
    elif -gain > metric["bound"] * abs(a_med):
        outcome = "regressed"
    elif spread > metric["bound"] * abs(a_med) and not every_run_better:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "parent": (a_q1, a_med, a_q3),
        "change": (b_q1, b_med, b_q3),
        "won": won,
        "pairs": len(pairs),
        "verdict": outcome,
    }


def compare(parent: dict[tuple, dict], change: dict[tuple, dict], spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) over the paired records."""
    keys = sorted(parent.keys() & change.keys())
    rows = []
    for workload in dict.fromkeys(key[0] for key in keys):
        paired = [(parent[k], change[k]) for k in keys if k[0] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [(a["end_to_end"][name], b["end_to_end"][name]) for a, b in paired]
            rows.append({"workload": workload, "metric": name, **verdict(metric, pairs)})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="records of the parent commit")
    parser.add_argument("change", type=Path, help="records of the change")
    args = parser.parse_args(argv)
    rows = compare(load_records(args.parent), load_records(args.change), load_spec())
    if not rows:
        print("no paired records to compare", file=sys.stderr)
        return 2
    print(f"{'workload':<22} {'metric':<22} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'won':>5} {'n':>3}  verdict")  # fmt: skip
    for row in rows:
        parent = "/".join(f"{v:.5g}" for v in row["parent"])
        change = "/".join(f"{v:.5g}" for v in row["change"])
        print(f"{row['workload']:<22} {row['metric']:<22} {parent:>32} {change:>32} "
              f"{row['won']:>5.0%} {row['pairs']:>3}  {row['verdict']}")  # fmt: skip
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
