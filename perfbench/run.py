#!/usr/bin/env python3
"""Run the repository benchmark.

From the repository root::

    python3 perfbench/run.py --workload paper-apps --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 42        # every workload, with its layer split

With ``--workload``, one process runs that workload single-threaded: it
imports the simulator, runs one warm-up repeat, then measured repeats in
a closed loop (each starts when the previous one ends) until
``--seconds`` have passed and at least ``MIN_REPEATS`` ran.  Host
metrics are medians over the measured repeats.  ``--trace 1`` adds one
traced repeat whose layer spans give the per-layer host split
(``perfbench/layers.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The exit code is non-zero when a
correctness check failed.

Without ``--workload`` each workload runs in its own fresh process, one
at a time, with ``--trace 1``, and a table of every end-to-end metric and
the largest layers is printed.

``--out DIR`` also writes the full record of each run (every repeat,
both metric sets, host metadata) to ``DIR``, the input of
``perfbench/compare.py``.  ``--scale`` shrinks every workload for smoke
tests; such records are marked and never compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import REPO_ROOT, WORK_DIR, load_spec, use_source_tree  # noqa: E402

#: Measured repeats per run, at least, whatever ``--seconds`` says.
MIN_REPEATS = 5
#: BLAS/OpenMP pools numpy could start; the simulator is single-threaded.
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git_rev() -> str:
    """HEAD of the checkout's own ``.git``, read without leaving the checkout."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_simulator():
    """Import numpy, the simulator and the benchmark modules; returns them."""
    for name in _THREAD_ENV:
        os.environ.setdefault(name, "1")
    # The simulator stamps payloads with this revision; set, it does not
    # probe git (which would search directories above the checkout).
    os.environ.setdefault("REPRO_CODE_REV", _git_rev())
    use_source_tree()
    import numpy

    from perfbench import layers, workloads

    return numpy, layers, workloads


def _meta(numpy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_rev": os.environ["REPRO_CODE_REV"],
    }


class _Run:
    """One workload's repeats, checks and counts inside one process."""

    def __init__(self, workloads, name: str, seed: int, scale: float, workdir: Path):
        self.workloads = workloads
        self.build_args = {"name": name, "seed": seed, "scale": scale, "workdir": workdir}
        self.reference: str | None = None
        self.simulated: dict | None = None
        self.planned = 1
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def repeat(self, spans=None) -> dict | None:
        """Build and run once; returns the repeat's timings, or None on failure.

        With *spans*, counters are zeroed after the build so they cover
        exactly the run call.
        """
        workloads = self.workloads
        try:
            started = time.perf_counter()
            prepared = workloads.build(**self.build_args)
            build_s = time.perf_counter() - started
            self.planned = prepared.expected_accesses
            if spans is not None:
                spans.reset()
            started = time.perf_counter()
            outcome = prepared.run()
            run_s = time.perf_counter() - started
            simulated = workloads.simulated_metrics(outcome)
            problems = workloads.check(outcome, prepared.expected_accesses)
        except Exception:  # a failing repeat is counted, not fatal
            traceback.print_exc()
            return self._fail(["repeat raised: " + traceback.format_exc(limit=1).strip()])
        digest = workloads.digest(simulated)
        if self.reference is None:
            self.reference, self.simulated = digest, simulated
        elif digest != self.reference:
            problems.append(f"simulated digest {digest[:12]} drifted from {self.reference[:12]}")
        if problems:
            return self._fail(problems)
        self.attempted += prepared.expected_accesses
        return {
            "build_s": build_s,
            "run_s": run_s,
            "accesses": prepared.expected_accesses,
            "stages": prepared.stages,
            "digest": digest,
        }

    def _fail(self, problems: list[str]) -> None:
        self.attempted += self.planned
        self.failed += self.planned
        self.problems.extend(problems)
        print("\n".join(problems), file=sys.stderr)
        return None


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run workload *name* and return its full record."""
    started = time.perf_counter()
    numpy, layers, workloads = _import_simulator()
    import_s = time.perf_counter() - started
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
        run = _Run(workloads, name, seed, scale, Path(workdir))
        run.repeat()  # warm-up: lazy imports, caches, the reference digest
        repeats = []
        deadline = time.perf_counter() + seconds
        while len(repeats) < MIN_REPEATS or time.perf_counter() < deadline:
            repeats.append(run.repeat())
        measured = [r for r in repeats if r is not None]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = None
        if trace:
            spans = layers.SpanStack()
            with layers.instrument(spans):
                traced = run.repeat(spans)
    record = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "meta": _meta(numpy),
        "import_s": import_s,
        "repeats": repeats,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "simulated": run.simulated,
        "traced": traced,
        "end_to_end": None,
        "per_layer": None,
    }
    if not measured:
        return record
    run_s = statistics.median(r["run_s"] for r in measured)
    record["end_to_end"] = {
        "accesses_per_s": statistics.median(r["accesses"] / r["run_s"] for r in measured),
        "setup_s": statistics.median(r["build_s"] for r in measured),
        "peak_rss_mb": peak_rss_mb,
        "sim_fault_p50_us": run.simulated["sim_fault_p50_us"],
        "sim_fault_p99_us": run.simulated["sim_fault_p99_us"],
        "sim_makespan_s": run.simulated["sim_makespan_s"],
    }
    if traced is not None:
        traced["self_s"] = layers.self_seconds(spans)
        per_layer = layers.report(spans, traced["run_s"])
        for stage in ("capture", "open"):
            per_layer[f"host.trace.{stage}.setup_share"] = statistics.median(
                r["stages"].get(f"{stage}_s", 0.0) / r["build_s"] for r in measured
            )
        per_layer["host.traced_run_s"] = traced["run_s"]
        per_layer["host.trace_overhead"] = traced["run_s"] / run_s
        per_layer["host.import_s"] = import_s
        per_layer.update(
            (key, value) for key, value in run.simulated.items() if key.startswith("sim.")
        )
        record["per_layer"] = per_layer
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The result line for *record*: the last line of standard output."""
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record[section]
    metrics = {}
    if values is not None:
        metrics = {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in spec[section]
        }
    return {
        "correct": record["correct"] and values is not None,
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": metrics,
    }


def _record_path(out: Path, workload: str, seed: int, trace: bool) -> Path:
    return out / f"{workload}-seed{seed}-trace{int(trace)}.json"


def _write(record: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    path = _record_path(out, record["workload"], record["seed"], record["trace"])
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _run_one(args, spec: dict) -> int:
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    if args.out is not None:
        _write(record, args.out)
    line = result_line(record, spec)
    for name, metric in line["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


#: Record fields kept in the combined ``layers-seed<n>.json`` split.
_SPLIT_KEYS = (
    "seed", "scale", "meta", "correct", "attempted", "failed", "end_to_end", "per_layer", "traced"
)  # fmt: skip


def _run_all(args, spec: dict) -> int:
    out = args.out if args.out is not None else WORK_DIR / "results"
    status = 0
    split = {}
    for workload in (w["name"] for w in spec["workloads"]):
        path = _record_path(out, workload, args.seed, True)
        path.unlink(missing_ok=True)
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "1",
            "--scale", str(args.scale),
            "--out", str(out),
        ]  # fmt: skip
        completed = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
        status = status or completed.returncode
        if not path.exists():
            print(f"\n{workload}: no record, exit code {completed.returncode}")
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        _print_table(record, spec)
        split[workload] = {key: record[key] for key in _SPLIT_KEYS}
    path = out / f"layers-seed{args.seed}.json"
    path.write_text(json.dumps(split, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nlayer split written to {path}")
    return status


def _print_table(record: dict, spec: dict) -> None:
    print(f"\n{record['workload']}  seed={record['seed']}  scale={record['scale']}  "
          f"repeats={len(record['repeats'])}  failed_frac="
          f"{record['failed'] / max(1, record['attempted']):.3g}")  # fmt: skip
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")
    e2e, layers = record["end_to_end"] or {}, record["per_layer"] or {}
    for metric in spec["end_to_end"]:
        if metric["name"] in e2e:
            print(f"  {metric['name']:<24} {e2e[metric['name']]:>14.6g} {metric['unit']}")
    shares = sorted(
        ((value, key[: -len(".share")]) for key, value in layers.items() if key.endswith(".share")),
        reverse=True,
    )
    if shares:
        print(f"  host split (attributed {layers['host.attributed_share']:.1%}, "
              f"trace overhead {layers['host.trace_overhead']:.2f}x): "
              + ", ".join(f"{name} {share:.1%}" for share, name in shares[:6]))  # fmt: skip


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write each run's full record here")
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.workload is None:
        return _run_all(args, spec)
    return _run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
