"""Performance artifacts and the CI perf gate.

Every measured run is a named profile (:data:`PROFILES`, run by
:func:`run_profile`) that leaves a machine-readable trace of how fast
it was: a ``BENCH_<name>.json`` artifact with p50/p95/p99 fault
latency, completion time, and fault counts per application, plus the
host wall-clock of the run.  CI runs every profile at its scaled-down
defaults on every push and compares it against the committed
``BENCH_<name>_baseline.json``; a regression past the budget in
``PERF_BUDGETS.md`` fails the build.

Two kinds of numbers live in an artifact, with different stability:

* **simulated** metrics (latency percentiles, completion seconds,
  fault counts) are deterministic for a fixed seed — any drift is a
  real behavioural change, so the gate's budget is headroom for
  *intentional* changes, not for noise;
* **host** wall-clock varies with the runner and is recorded for
  trend-watching but never gated.
"""

from repro.perf.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    GateViolation,
    artifact_path,
    compare_artifacts,
    load_artifact,
    write_artifact,
)
from repro.perf.profile import (
    CONTROL_PROFILE_SCENARIO,
    PROFILES,
    SCENARIO_PROFILE_NAMES,
    percentiles_us,
    profile_cluster,
    profile_concurrent,
    run_profile,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "CONTROL_PROFILE_SCENARIO",
    "GateViolation",
    "PROFILES",
    "SCENARIO_PROFILE_NAMES",
    "artifact_path",
    "compare_artifacts",
    "load_artifact",
    "percentiles_us",
    "profile_cluster",
    "profile_concurrent",
    "run_profile",
    "write_artifact",
]
