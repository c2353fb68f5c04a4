"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

``perfbench/run.py`` is the command; ``BENCHMARK.json`` at the repository
root declares its workloads, metric names, units, directions and bounds.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for files a run writes (captured traces); ignored by git.
WORK_DIR = REPO_ROOT / ".bench_build"


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    Exits when the checkout has no simulator source: the benchmark
    measures this tree, never an installed copy.
    """
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"{src / 'repro'} not found: run from a checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_spec() -> dict:
    """``BENCHMARK.json``: the declared workloads and metric catalogue."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
