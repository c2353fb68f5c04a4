"""Persistent on-disk job queue with atomic multi-process claims.

Each job is one JSON file; its lifecycle is the directory it sits in
(``pending/`` → ``running/`` → ``done/`` | ``failed/``).  State
transitions are ``os.rename`` within one filesystem — atomic on POSIX
— so any number of worker processes can poll the same queue root and
exactly one wins each claim, with no lock files.  Crash recovery is not
implemented yet: a job whose worker died stays in ``running/`` until it
is moved back to ``pending/`` by hand.

A record with an unknown, missing or mistyped field fails loudly on
every read with a :class:`~repro.codec.SpecError` naming file and field.

Per-cell progress streams through ``progress/<job_id>.json``, written
by the executing worker and polled by ``repro service status``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.codec import Spec, SpecError
from repro.service.clock import job_id, wall_time

__all__ = ["JobQueue", "JobRecord"]

STATES = ("pending", "running", "done", "failed")


def new_job_id() -> str:
    """Unique, time-sortable job id (FIFO claim order falls out of it)."""
    return job_id()


@dataclass
class JobRecord(Spec):
    """One submission's durable state (everything but the payload)."""

    id: str
    spec: dict
    run_key: str
    spec_hash: str
    seed: int
    code_rev: str
    state: str = "pending"
    cache_hit: bool = False
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    worker_pid: int | None = None
    #: Distinct pool-worker pids that executed cells (sweep jobs).
    cell_pids: list[int] = field(default_factory=list)

    omit_empty = False


def _read_record(path: Path) -> JobRecord:
    """Decode one queue file; a bad record's error names the file."""
    try:
        return JobRecord.from_dict(json.loads(path.read_text()))
    except SpecError as error:
        raise SpecError(str(path), str(error)) from None


def _write_json(path: Path, data: dict) -> None:
    """Atomic write: temp file + rename, so readers never see a torn file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)


class JobQueue:
    """Directory-backed job queue under ``<root>/queue``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root) / "queue"
        for state in STATES:
            (self.root / state).mkdir(parents=True, exist_ok=True)
        (self.root / "progress").mkdir(exist_ok=True)

    # -- paths ---------------------------------------------------------

    def _job_path(self, state: str, job_id: str) -> Path:
        return self.root / state / f"{job_id}.json"

    def _progress_path(self, job_id: str) -> Path:
        return self.root / "progress" / f"{job_id}.json"

    # -- submission / transitions -------------------------------------

    def submit(self, record: JobRecord) -> JobRecord:
        """Persist a new record in its (usually ``pending``) state."""
        if record.state not in STATES:
            raise ValueError(f"unknown job state {record.state!r}")
        if not record.submitted_at:
            record.submitted_at = wall_time()
        _write_json(self._job_path(record.state, record.id), record.to_dict())
        return record

    def claim(self) -> JobRecord | None:
        """Atomically move the oldest pending job to running; None if empty.

        The rename is the lock: a concurrent claimer loses the race
        with ``FileNotFoundError`` and simply tries the next entry.
        """
        pending = sorted(p for p in (self.root / "pending").iterdir() if p.suffix == ".json")
        for path in pending:
            target = self.root / "running" / path.name
            try:
                os.rename(path, target)
            except FileNotFoundError:
                continue  # another worker won this one
            record = _read_record(target)
            record.state = "running"
            record.started_at = wall_time()
            record.worker_pid = os.getpid()
            _write_json(target, record.to_dict())
            return record
        return None

    def _finish(self, record: JobRecord, state: str) -> JobRecord:
        record.state = state
        record.finished_at = wall_time()
        final = self._job_path(state, record.id)
        _write_json(final, record.to_dict())
        running = self._job_path("running", record.id)
        if running.exists():
            running.unlink()
        return record

    def finish(self, record: JobRecord) -> JobRecord:
        return self._finish(record, "done")

    def fail(self, record: JobRecord, error: str) -> JobRecord:
        record.error = error
        return self._finish(record, "failed")

    # -- inspection ----------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        for state in STATES:
            path = self._job_path(state, job_id)
            if path.exists():
                return _read_record(path)
        raise KeyError(f"no such job: {job_id}")

    def jobs(self, state: str) -> list[JobRecord]:
        if state not in STATES:
            raise ValueError(f"unknown job state {state!r}")
        return [_read_record(path) for path in sorted((self.root / state).glob("*.json"))]

    def pending_count(self) -> int:
        return sum(1 for _ in (self.root / "pending").glob("*.json"))

    # -- progress streaming -------------------------------------------

    def write_progress(self, job_id: str, progress: dict) -> None:
        _write_json(self._progress_path(job_id), progress)

    def read_progress(self, job_id: str) -> dict | None:
        path = self._progress_path(job_id)
        if not path.exists():
            return None
        return json.loads(path.read_text())
