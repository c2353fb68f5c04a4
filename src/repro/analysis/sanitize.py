"""Runtime invariant sanitizer: per-burst structural checks, zero drift.

The static rules in :mod:`repro.analysis.lint` catch source-level
determinism leaks; this module catches *state* corruption while a
simulation runs.  :class:`SanitizingFaultPipeline` wraps the object
:class:`~repro.datapath.pipeline.FaultPipeline` (which both burst
engines execute on) and re-verifies the machine's structural
invariants at every batch boundary — the one point all run paths
(``simulate`` / ``run_concurrent`` / ``run_cluster``, object or
vectorized driver) pass through via ``begin_batch``:

* **page table ⇔ LRU residency** — a vpn is mapped iff it is on the
  process's active/inactive residency LRU (and the vectorized engine's
  numpy ``resident_mask``, when attached, agrees bit for bit);
* **cgroup charge accounting** — ``charged_pages`` equals resident
  mappings plus the process's unconsumed page-cache entries, and the
  per-process ``cache_charged`` ledger matches an actual count of the
  shared cache;
* **completion-queue deadline monotonicity** — batch time never runs
  backwards, no live entry's deadline precedes its issue time, and
  after the batch-boundary drain nothing overdue is still in flight;
* **slab slot uniqueness** — on remote/cluster media, every remote
  page key maps to exactly one slot, slot maps back to key, and free
  lists are disjoint from occupied slots.

Every check is **read-only**: the sanitizer observes, never perturbs,
so a sanitized run's simulated metrics are byte-identical to the plain
run (asserted by ``tests/test_sanitize.py``).  Enable it with
``REPRO_SANITIZE=1`` in the environment (checks on top of whichever
engine is configured).  ``REPRO_SANITIZE_EVERY=N`` checks every Nth
batch (default 1) for long smokes where O(resident) per batch is too
much.

A violated invariant raises :class:`InvariantViolation` naming the
process, the structure, and the disagreement — the point is a loud,
early, located failure instead of a baseline diff three layers later.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.datapath.pipeline import FaultPipeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.vmm import VirtualMemoryManager

__all__ = [
    "InvariantViolation",
    "SanitizingFaultPipeline",
    "install_sanitizer",
    "sanitize_enabled",
    "sanitize_every",
]

_OFF = ("", "0", "false", "no")


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for checks on top of either engine."""
    return os.environ.get("REPRO_SANITIZE", "").lower() not in _OFF


def sanitize_every() -> int:
    """Batch sampling period from ``REPRO_SANITIZE_EVERY`` (default 1)."""
    raw = os.environ.get("REPRO_SANITIZE_EVERY", "1")
    try:
        period = int(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_SANITIZE_EVERY must be an int, got {raw!r}") from exc
    return max(1, period)


class InvariantViolation(AssertionError):
    """A structural invariant of the simulated machine does not hold."""


class SanitizingFaultPipeline(FaultPipeline):
    """FaultPipeline that audits machine state at every batch boundary.

    Subclasses the object pipeline, so the access path itself is the
    audited production code — only ``begin_batch`` gains the read-only
    invariant sweep after the normal drain + reclaim check.
    """

    def __init__(self, vmm: "VirtualMemoryManager", completion_queue=None, every: int = 1) -> None:
        super().__init__(vmm, completion_queue)
        self.every = max(1, every)
        self.batches_checked = 0
        self._batch_index = 0
        self._last_batch_now: int | None = None

    # -- hook ----------------------------------------------------------

    def begin_batch(self, now: int) -> None:
        super().begin_batch(now)
        self._check_clock(now)
        self._batch_index += 1
        if self._batch_index % self.every == 0:
            self.check_invariants(now)

    # -- invariant sweep ----------------------------------------------

    def check_invariants(self, now: int) -> None:
        """Run the full read-only sweep; raises InvariantViolation."""
        self.batches_checked += 1
        cache_counts = self._cache_charges_by_pid()
        for process in self.vmm.processes:
            self._check_residency(process)
            self._check_cgroup(process, cache_counts.get(process.pid, 0))
        self._check_completion_queue(now)
        self._check_slabs()

    # -- clock / completion queue -------------------------------------

    def _check_clock(self, now: int) -> None:
        last = self._last_batch_now
        if last is not None and now < last:
            raise InvariantViolation(
                f"batch clock ran backwards: begin_batch({now}) after begin_batch({last})"
            )
        self._last_batch_now = now

    def _check_completion_queue(self, now: int) -> None:
        live = 0
        for arrival_at, _seq, entry in self.cq._arrivals:
            if entry.done:
                continue
            live += 1
            if entry.arrival_at < entry.issued_at:
                raise InvariantViolation(
                    f"completion-queue entry {entry.key!r}: arrival {entry.arrival_at}"
                    f" precedes issue {entry.issued_at}"
                )
            if entry.arrival_at <= now:
                raise InvariantViolation(
                    f"completion-queue entry {entry.key!r} overdue after drain:"
                    f" arrival {entry.arrival_at} <= now {now}"
                )
            if arrival_at > entry.arrival_at:
                raise InvariantViolation(
                    f"completion-queue heap key {arrival_at} exceeds entry deadline"
                    f" {entry.arrival_at} for {entry.key!r}"
                )
        per_core = sum(self.cq._per_core.values())
        if per_core != live:
            raise InvariantViolation(
                f"completion-queue per-core depths sum to {per_core}, {live} live entries"
            )

    # -- residency ----------------------------------------------------

    def _check_residency(self, process) -> None:
        table = process.page_table
        mapped = set(table._entries)
        lru = process.resident_lru
        on_lru = {key for key in lru._active} | {key for key in lru._inactive}
        if mapped != on_lru:
            only_table = sorted(mapped - on_lru)[:5]
            only_lru = sorted(on_lru - mapped)[:5]
            raise InvariantViolation(
                f"pid {process.pid}: page table and residency LRU disagree"
                f" ({len(mapped)} mapped vs {len(on_lru)} on LRU;"
                f" table-only {only_table}, lru-only {only_lru})"
            )
        mask = table.resident_mask
        if mask is not None:
            import numpy as np

            resident = int(mask.sum())
            if resident != len(mapped):
                raise InvariantViolation(
                    f"pid {process.pid}: resident_mask counts {resident},"
                    f" page table maps {len(mapped)}"
                )
            if mapped and not bool(np.all(mask[sorted(mapped)])):
                raise InvariantViolation(
                    f"pid {process.pid}: resident_mask clears a mapped vpn"
                )

    # -- cgroup accounting --------------------------------------------

    def _cache_charges_by_pid(self) -> dict[int, int]:
        """Unconsumed shared-cache entries per pid (one ordered pass)."""
        counts: dict[int, int] = {}
        for key, entry in self.vmm.cache.entries.items():
            if not entry.consumed:
                pid = key[0]
                counts[pid] = counts.get(pid, 0) + 1
        return counts

    def _check_cgroup(self, process, unconsumed_cache: int) -> None:
        if process.cache_charged != unconsumed_cache:
            raise InvariantViolation(
                f"pid {process.pid}: cache_charged ledger says {process.cache_charged},"
                f" cache holds {unconsumed_cache} unconsumed entries"
            )
        resident = len(process.page_table)
        expected = resident + process.cache_charged
        charged = process.cgroup.charged_pages
        if charged != expected:
            raise InvariantViolation(
                f"pid {process.pid}: cgroup charges {charged} pages, expected"
                f" {resident} resident + {process.cache_charged} cached = {expected}"
            )
        if process.cgroup.limit_pages is not None and charged > process.cgroup.limit_pages:
            raise InvariantViolation(
                f"pid {process.pid}: cgroup charge {charged} exceeds limit"
                f" {process.cgroup.limit_pages}"
            )

    # -- slab allocator -----------------------------------------------

    def _check_slabs(self) -> None:
        backend = getattr(self.vmm.data_path, "backend", None)
        agent = getattr(backend, "agent", None)
        allocator = getattr(agent, "allocator", None)
        if allocator is None:
            return
        for slab in allocator.slabs.values():
            if len(slab.page_slots) != slab.used_slots:
                raise InvariantViolation(
                    f"slab {slab.slab_id}: used_slots={slab.used_slots} but"
                    f" {len(slab.page_slots)} pages mapped"
                )
            seen_slots: set[int] = set()
            for key, slot in slab.page_slots.items():
                if slot in seen_slots:
                    raise InvariantViolation(
                        f"slab {slab.slab_id}: slot {slot} assigned to two pages"
                    )
                seen_slots.add(slot)
                if not (0 <= slot < len(slab.slot_pages)) or slab.slot_pages[slot] != key:
                    raise InvariantViolation(
                        f"slab {slab.slab_id}: slot {slot} does not map back to {key!r}"
                    )
            for slot in slab.free_slots:
                if slot in seen_slots:
                    raise InvariantViolation(
                        f"slab {slab.slab_id}: slot {slot} is both free and occupied"
                    )
                if slab.slot_pages[slot] is not None:
                    raise InvariantViolation(
                        f"slab {slab.slab_id}: free slot {slot} still holds"
                        f" {slab.slot_pages[slot]!r}"
                    )
        for key, loc in allocator._locations.items():
            slab = allocator.slabs.get(loc.slab_id)
            if slab is None or slab.page_slots.get(key) != loc.slot:
                raise InvariantViolation(
                    f"allocator location {loc} for {key!r} disagrees with its slab"
                )


def install_sanitizer(
    vmm: "VirtualMemoryManager", every: int | None = None
) -> SanitizingFaultPipeline:
    """Swap *vmm*'s pipeline for the sanitizing subclass (same CQ).

    Called by :class:`repro.sim.machine.Machine` right after VMM
    construction, before any access runs, so the sanitizing pipeline
    inherits an empty completion queue and fresh reclaim schedule.
    """
    pipeline = SanitizingFaultPipeline(
        vmm,
        vmm.pipeline.cq,
        every=sanitize_every() if every is None else every,
    )
    vmm.pipeline = pipeline
    return pipeline
