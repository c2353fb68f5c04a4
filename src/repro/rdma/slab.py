"""Slab-granular remote memory mapping.

Following §4.4, the remote memory pool is carved into fixed-size slabs.
A host agent maps slabs — not individual pages — onto remote machines,
choosing the machine for each new slab with the power-of-two-choices
rule (§4.5) to keep memory usage balanced.  Within a slab, page slots
are handed out in the order pages are first evicted, which reproduces
the paper's observation that pages aged out together land at nearby
remote addresses.

Slots are *reclaimed*: when a page faults back in and its backing copy
is dropped (:meth:`SlabAllocator.release`), the slot returns to its
slab's free list and is reused before any new slab is opened.  Without
this, every evict/fault-in cycle would consume a fresh slot and a long
run would leak remote capacity one slab at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Slab", "PageLocation", "SlabAllocator"]


@dataclass(slots=True)
class PageLocation:
    """Where one page lives remotely: a slab and a slot within it.

    One is built per page placement, so it is not frozen; callers
    treat it as a value.
    """

    slab_id: int
    slot: int

    def global_offset(self, slab_capacity: int) -> int:
        """Page-granular offset in the host's remote address space."""
        return self.slab_id * slab_capacity + self.slot


@dataclass(slots=True)
class Slab:
    """One fixed-size chunk of remote memory mapped on one machine."""

    slab_id: int
    machine_id: int
    capacity_pages: int
    used_slots: int = 0
    replica_machine_id: int | None = None
    page_slots: dict[object, int] = field(default_factory=dict)
    slot_pages: list[object] = field(default_factory=list)
    free_slots: list[int] = field(default_factory=list)

    @property
    def is_full(self) -> bool:
        return self.used_slots >= self.capacity_pages

    @property
    def has_free_slot(self) -> bool:
        return bool(self.free_slots)

    def allocate_slot(self, key: object) -> int:
        if key in self.page_slots:
            raise ValueError(f"page {key!r} already has a slot in slab {self.slab_id}")
        if self.free_slots:
            slot = self.free_slots.pop()
            self.slot_pages[slot] = key
        elif len(self.slot_pages) < self.capacity_pages:
            slot = len(self.slot_pages)
            self.slot_pages.append(key)
        else:
            raise RuntimeError(f"slab {self.slab_id} is full")
        self.page_slots[key] = slot
        self.used_slots += 1
        return slot

    def free_slot(self, key: object) -> int:
        """Return *key*'s slot to this slab's free list."""
        slot = self.page_slots.pop(key)
        self.slot_pages[slot] = None
        self.free_slots.append(slot)
        self.used_slots -= 1
        return slot

    def key_at(self, slot: int) -> object | None:
        if 0 <= slot < len(self.slot_pages):
            return self.slot_pages[slot]
        return None


class SlabAllocator:
    """Tracks the open slab and page→location mapping for one host."""

    def __init__(self, slab_capacity_pages: int) -> None:
        if slab_capacity_pages <= 0:
            raise ValueError(
                f"slab capacity must be positive, got {slab_capacity_pages}"
            )
        self.slab_capacity_pages = slab_capacity_pages
        self.slabs: dict[int, Slab] = {}
        self._locations: dict[object, PageLocation] = {}
        self._open_slab: Slab | None = None
        self._next_slab_id = 0
        #: Slab ids with at least one reclaimed slot, in the order the
        #: first slot came back (dict-as-ordered-set, for determinism).
        self._reusable: dict[int, None] = {}
        self.released_slots = 0
        self.reused_slots = 0

    def location_of(self, key: object) -> PageLocation | None:
        return self._locations.get(key)

    @property
    def mapped_pages(self) -> int:
        return len(self._locations)

    def needs_new_slab(self) -> bool:
        if self._reusable:
            return False
        return self._open_slab is None or self._open_slab.is_full

    def open_slab(self, machine_id: int, replica_machine_id: int | None) -> Slab:
        """Create a new open slab mapped on *machine_id*."""
        slab = Slab(
            slab_id=self._next_slab_id,
            machine_id=machine_id,
            capacity_pages=self.slab_capacity_pages,
            replica_machine_id=replica_machine_id,
        )
        self._next_slab_id += 1
        self.slabs[slab.slab_id] = slab
        self._open_slab = slab
        return slab

    def place_page(self, key: object) -> PageLocation:
        """Assign *key* a slot, reusing reclaimed slots before the open slab."""
        existing = self._locations.get(key)
        if existing is not None:
            return existing
        while self._reusable:
            slab_id = next(iter(self._reusable))
            slab = self.slabs[slab_id]
            if not slab.free_slots:
                del self._reusable[slab_id]
                continue
            slot = slab.allocate_slot(key)
            if not slab.free_slots:
                del self._reusable[slab_id]
            location = PageLocation(slab_id=slab_id, slot=slot)
            self._locations[key] = location
            self.reused_slots += 1
            return location
        if self._open_slab is None or self._open_slab.is_full:
            raise RuntimeError("no open slab; call open_slab() first")
        slot = self._open_slab.allocate_slot(key)
        location = PageLocation(slab_id=self._open_slab.slab_id, slot=slot)
        self._locations[key] = location
        return location

    def release(self, key: object) -> bool:
        """Reclaim *key*'s slot (the page faulted back in).

        The slot is queued for reuse by the next placement, so steady
        evict/fault-in churn recycles remote capacity instead of
        opening slab after slab.  Returns True when a slot was freed.
        """
        location = self._locations.pop(key, None)
        if location is None:
            return False
        slab = self.slabs[location.slab_id]
        slab.free_slot(key)
        self._reusable.setdefault(slab.slab_id)
        self.released_slots += 1
        return True

    def keys_in_slab(self, slab_id: int) -> list[object]:
        """Pages currently occupying slots of one slab (remap/recovery)."""
        return list(self.slabs[slab_id].page_slots)

    def slab_of(self, location: PageLocation) -> Slab:
        return self.slabs[location.slab_id]

    def key_at(self, global_offset: int) -> object | None:
        """Reverse lookup: page occupying a global page offset, if any."""
        if global_offset < 0:
            return None
        slab = self.slabs.get(global_offset // self.slab_capacity_pages)
        if slab is None:
            return None
        return slab.key_at(global_offset % self.slab_capacity_pages)

    def slabs_on_machine(self, machine_id: int) -> list[Slab]:
        return [
            slab
            for slab in self.slabs.values()
            if slab.machine_id == machine_id or slab.replica_machine_id == machine_id
        ]
