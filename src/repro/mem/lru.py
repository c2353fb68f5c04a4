"""LRU list machinery used by the page cache and the reclaim daemon.

Two structures live here:

* :class:`LRUList` — a single ordered list with O(1) add / touch /
  remove / pop-oldest, built on a :class:`collections.OrderedDict`.
  A plain dict keeps insertion order too, but finding its oldest key
  walks past the slots earlier deletions left behind, so a dict used
  as a FIFO pays more per pop the longer it churns; the OrderedDict's
  linked list pops its head in constant time.
* :class:`ActiveInactiveLRU` — the two-list scheme Linux uses.  New
  pages enter the *inactive* list; a reference promotes a page to the
  *active* list; reclaim scans the inactive tail and demotes active
  pages when the inactive list gets too short.  The Figure 4 effect —
  consumed prefetch pages lingering for a long time before ``kswapd``
  gets to them — falls out of exactly this structure.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from itertools import chain
from typing import Generic, Hashable, Iterator, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Sentinel distinguishing "absent" from a stored value of None.
_MISSING = object()


class LRUList(Generic[K, V]):
    """An ordered map where iteration order is least-recently-used first."""

    def __init__(self) -> None:
        self._entries: OrderedDict[K, V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        """Iterate keys from least to most recently used."""
        return iter(self._entries)

    def get(self, key: K) -> Optional[V]:
        return self._entries.get(key)

    def add(self, key: K, value: V) -> None:
        """Insert *key* as the most recently used entry.

        Re-adding an existing key moves it to the MRU position and
        replaces its value.
        """
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = value

    def touch(self, key: K) -> bool:
        """Move *key* to the MRU position; returns False if absent."""
        entries = self._entries
        if key not in entries:
            return False
        entries.move_to_end(key)
        return True

    def remove(self, key: K) -> Optional[V]:
        """Remove *key*, returning its value or None if absent."""
        return self._entries.pop(key, None)

    def pop(self, key: K, default: V) -> V:
        """Remove *key*, returning *default* if absent.

        Unlike :meth:`remove`, a caller can pass a sentinel default to
        distinguish "absent" from a stored value of None in one lookup.
        """
        return self._entries.pop(key, default)

    def pop_lru(self) -> Optional[tuple[K, V]]:
        """Remove and return the least recently used (key, value)."""
        if not self._entries:
            return None
        return self._entries.popitem(last=False)

    def peek_lru(self) -> Optional[tuple[K, V]]:
        """Return the least recently used (key, value) without removing."""
        if not self._entries:
            return None
        key = next(iter(self._entries))
        return key, self._entries[key]

    def keys_lru_order(self) -> list[K]:
        """Snapshot of keys from least to most recently used."""
        return list(self._entries)


class ActiveInactiveLRU(Generic[K, V]):
    """Linux-style two-list LRU.

    New pages land on the inactive list.  :meth:`reference` promotes an
    inactive page to active (second-chance).  :meth:`scan_inactive`
    yields eviction candidates from the inactive tail, refilling from
    the active list when the inactive share drops below
    ``inactive_ratio`` of the total.
    """

    def __init__(self, inactive_ratio: float = 0.5) -> None:
        if not 0.0 < inactive_ratio < 1.0:
            raise ValueError(f"inactive_ratio must be in (0, 1), got {inactive_ratio}")
        self.inactive_ratio = inactive_ratio
        self._active: LRUList[K, V] = LRUList()
        self._inactive: LRUList[K, V] = LRUList()

    def __len__(self) -> int:
        return len(self._active) + len(self._inactive)

    def __contains__(self, key: K) -> bool:
        return key in self._active or key in self._inactive

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def inactive_count(self) -> int:
        return len(self._inactive)

    def add(self, key: K, value: V) -> None:
        """Insert a new page on the inactive list (cold entry)."""
        self._active._entries.pop(key, None)
        self._inactive.add(key, value)

    def get(self, key: K) -> Optional[V]:
        value = self._inactive.get(key)
        if value is not None:
            return value
        return self._active.get(key)

    def reference(self, key: K) -> bool:
        """Record a use of *key*; inactive pages are promoted to active."""
        active = self._active._entries
        if key in active:
            active.move_to_end(key)
            return True
        value = self._inactive._entries.pop(key, _MISSING)
        if value is _MISSING:
            return False
        active[key] = value  # type: ignore[assignment]
        return True

    def reference_bulk(self, keys_last_use_order: list[K]) -> None:
        """Apply a run of :meth:`reference` calls collapsed to one per key.

        *keys_last_use_order* must hold each distinct key once, ordered
        by its **last** occurrence in the original access run (earliest
        last-use first).  With no interleaved add/remove/scan, a run of
        per-access references is exactly equivalent to this collapsed
        form: every reference moves the key to the MRU position, so only
        the final (last-occurrence) move per key survives, and relative
        MRU order among keys is the order of their last uses.  This is
        the bulk path the vectorized burst kernel uses for resident
        runs, so the :meth:`reference` steps are inlined onto the
        underlying OrderedDicts (a key is never on both lists, so a
        re-reference is a ``move_to_end`` and a promotion a pop from
        the inactive list plus an insert at the active MRU end).  The
        active list is tried first, by ``move_to_end`` alone: the keys
        of a resident run are mostly hot already (about 95% on the
        KV-cache trace replay), so the rare ``KeyError`` costs less
        than a membership test on every key.  Keys on neither list are
        skipped, as :meth:`reference` skips them.
        """
        active = self._active._entries
        move_to_end = active.move_to_end
        inactive_pop = self._inactive._entries.pop
        for key in keys_last_use_order:
            try:
                move_to_end(key)
            except KeyError:
                value = inactive_pop(key, _MISSING)
                if value is not _MISSING:
                    active[key] = value

    def remove(self, key: K) -> Optional[V]:
        value = self._inactive.pop(key, _MISSING)  # type: ignore[arg-type]
        if value is not _MISSING:
            return value  # type: ignore[return-value]
        return self._active.remove(key)

    def _rebalance(self) -> None:
        """Demote active pages until the inactive share is restored."""
        active = self._active._entries
        inactive = self._inactive._entries
        needed = math.ceil((len(active) + len(inactive)) * self.inactive_ratio)
        # A key is never on both lists, so a demoted page goes straight
        # onto the inactive MRU end.
        pop_oldest = active.popitem
        for _ in range(min(needed - len(inactive), len(active))):
            key, value = pop_oldest(last=False)
            inactive[key] = value

    def scan_inactive(self, max_scan: int) -> list[tuple[K, V]]:
        """Take up to *max_scan* eviction candidates from the cold tail.

        Mirrors ``shrink_inactive_list``: the inactive list is refilled
        from the active list first, then candidates are popped from the
        inactive LRU end.  Candidates are *removed* from the lists; the
        caller decides whether to free or re-add them.
        """
        if max_scan <= 0:
            return []
        self._rebalance()
        inactive = self._inactive._entries
        pop_oldest = inactive.popitem
        return [pop_oldest(last=False) for _ in range(min(max_scan, len(inactive)))]

    def iter_eviction_order(self) -> Iterator[K]:
        """Lazily iterate all keys, coldest first (inactive, then active).

        The lists must not change while the iterator is live.
        """
        return chain(self._inactive, self._active)

    def keys_eviction_order(self) -> list[K]:
        """All keys, coldest first (inactive LRU..MRU, then active)."""
        return list(self.iter_eviction_order())
