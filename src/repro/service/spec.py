"""Job specs the run service accepts: one scenario run, or a sweep.

A spec is the *complete* description of the computation — scenario
(by registered name or as a full :class:`Scenario` dict, which already
round-trips exactly), every run knob, and the seed.  Its canonical
hash plus the code revision is the stored run's content address, so a
spec that serializes identically *is* the same run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping

from repro.codec import Spec, SpecError
from repro.provenance import run_key, spec_hash
from repro.scenarios.spec import Scenario

__all__ = ["ScenarioJob", "SweepJob", "job_from_dict"]


class _Job(Spec):
    """Both job kinds: every field is written; ``unhashed`` is not hashed."""

    __slots__ = ()
    omit_empty = False
    unhashed: ClassVar[str]

    def spec_hash(self) -> str:
        data = self.to_dict()
        del data[self.unhashed]
        return spec_hash(data)

    def run_key(self, code_rev: str) -> str:
        return run_key(self.spec_hash(), self.seed, code_rev)


@dataclass(frozen=True)
class ScenarioJob(_Job):
    """Run one scenario once on one configuration."""

    scenario: str | dict
    seed: int = 42
    cores: int = 4
    servers: int = 0
    prefetcher: str | None = None
    wss_pages: int | None = None
    total_accesses: int | None = None
    #: Record a deterministic trace alongside the payload (stored as a
    #: content-addressed extra blob).  Recorded in the spec but — like
    #: SweepJob.pool — excluded from the hash: tracing never changes
    #: simulated results, so a traced run answers an untraced
    #: submission (the reverse re-runs; see RunService.submit).
    trace: bool = False

    kind = "scenario"
    unhashed = "trace"

    def __post_init__(self) -> None:
        if isinstance(self.scenario, Scenario):
            object.__setattr__(self, "scenario", self.scenario.to_dict())
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.servers < 0:
            raise ValueError(f"servers must be >= 0, got {self.servers}")


@dataclass(frozen=True)
class SweepJob(_Job):
    """Run scenarios across a {cores × servers × prefetchers} grid."""

    scenarios: tuple[str | dict, ...] = ()
    cores: tuple[int, ...] = (2, 4)
    servers: tuple[int, ...] = (2, 4)
    prefetchers: tuple[str, ...] = ("leap", "readahead")
    seed: int = 42
    wss_pages: int | None = None
    total_accesses: int | None = None
    max_total_accesses: int | None = None
    #: Worker processes the pool fans cells across (capped at the cell
    #: count); part of the spec only in the sense of being recorded —
    #: it is excluded from the hash because it cannot change results, so
    #: a `--pool 4` rerun hits the cache a `--pool 2` run filled.
    pool: int = 2

    kind = "sweep"
    unhashed = "pool"

    def __post_init__(self) -> None:
        scenarios = (s.to_dict() if isinstance(s, Scenario) else s for s in self.scenarios)
        object.__setattr__(self, "scenarios", tuple(scenarios))
        if not self.scenarios:
            raise ValueError("a sweep needs at least one scenario")
        if not self.cores or not self.servers or not self.prefetchers:
            raise ValueError("every sweep grid axis needs at least one value")
        if self.pool < 1:
            raise ValueError(f"pool must be >= 1, got {self.pool}")


def job_from_dict(data: Mapping) -> ScenarioJob | SweepJob:
    """Rebuild a job spec from its dict form, dispatching on ``kind``."""
    for job in (ScenarioJob, SweepJob):
        if data.get("kind") == job.kind:
            return job.from_dict(data)
    raise SpecError("kind", f"unknown job kind {data.get('kind')!r}")
