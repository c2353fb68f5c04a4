"""Tests for LRU structures (repro.mem.lru)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.lru import ActiveInactiveLRU, LRUList


class TestLRUList:
    def test_empty(self):
        lru = LRUList()
        assert len(lru) == 0
        assert lru.pop_lru() is None
        assert lru.peek_lru() is None

    def test_add_and_order(self):
        lru = LRUList()
        lru.add("a", 1)
        lru.add("b", 2)
        lru.add("c", 3)
        assert lru.keys_lru_order() == ["a", "b", "c"]

    def test_touch_moves_to_mru(self):
        lru = LRUList()
        for key in "abc":
            lru.add(key, None)
        assert lru.touch("a") is True
        assert lru.keys_lru_order() == ["b", "c", "a"]

    def test_touch_missing_returns_false(self):
        lru = LRUList()
        assert lru.touch("nope") is False

    def test_touch_none_value_entry(self):
        lru = LRUList()
        lru.add("a", None)
        assert lru.touch("a") is True

    def test_re_add_moves_and_replaces(self):
        lru = LRUList()
        lru.add("a", 1)
        lru.add("b", 2)
        lru.add("a", 10)
        assert lru.keys_lru_order() == ["b", "a"]
        assert lru.get("a") == 10

    def test_pop_lru_removes_oldest(self):
        lru = LRUList()
        for index, key in enumerate("abc"):
            lru.add(key, index)
        assert lru.pop_lru() == ("a", 0)
        assert "a" not in lru

    def test_remove(self):
        lru = LRUList()
        lru.add("a", 1)
        assert lru.remove("a") == 1
        assert lru.remove("a") is None

    @given(st.lists(st.tuples(st.sampled_from("ops"), st.integers(0, 9)), max_size=200))
    def test_matches_reference_model(self, operations):
        """LRUList behaves like an ordered list-of-keys model."""
        lru: LRUList[int, int] = LRUList()
        model: list[int] = []
        for op, key in operations:
            if op == "o":  # add
                if key in model:
                    model.remove(key)
                model.append(key)
                lru.add(key, key)
            elif op == "p":  # touch
                touched = lru.touch(key)
                assert touched == (key in model)
                if key in model:
                    model.remove(key)
                    model.append(key)
            else:  # remove
                removed = lru.remove(key)
                assert (removed is not None) == (key in model)
                if key in model:
                    model.remove(key)
        assert lru.keys_lru_order() == model


class TestActiveInactiveLRU:
    def test_new_pages_start_inactive(self):
        lru = ActiveInactiveLRU()
        lru.add("a", 1)
        assert lru.inactive_count == 1
        assert lru.active_count == 0

    def test_reference_promotes(self):
        lru = ActiveInactiveLRU()
        lru.add("a", 1)
        assert lru.reference("a") is True
        assert lru.active_count == 1
        assert lru.inactive_count == 0

    def test_reference_missing(self):
        lru = ActiveInactiveLRU()
        assert lru.reference("zzz") is False

    def test_reference_bulk_skips_missing_keys(self):
        scalar, bulk = ActiveInactiveLRU(), ActiveInactiveLRU()
        for lru in (scalar, bulk):
            lru.add("a", 1)
            lru.add("b", 2)
            lru.reference("b")
        for key in ("zzz", "b", "a", "yyy"):
            scalar.reference(key)
        bulk.reference_bulk(["zzz", "b", "a", "yyy"])
        assert bulk.keys_eviction_order() == scalar.keys_eviction_order() == ["b", "a"]
        assert bulk.active_count == 2

    def test_scan_takes_cold_inactive_first(self):
        lru = ActiveInactiveLRU()
        for key in "abcd":
            lru.add(key, None)
        lru.reference("a")  # protect a
        victims = [key for key, _ in lru.scan_inactive(2)]
        assert victims == ["b", "c"]

    def test_scan_refills_from_active_when_inactive_short(self):
        lru = ActiveInactiveLRU(inactive_ratio=0.5)
        for key in "abcd":
            lru.add(key, None)
            lru.reference(key)  # everything active
        victims = lru.scan_inactive(1)
        assert len(victims) == 1
        assert len(lru) == 3

    def test_remove_from_either_list(self):
        lru = ActiveInactiveLRU()
        lru.add("a", 1)
        lru.add("b", 2)
        lru.reference("b")
        assert lru.remove("a") == 1
        assert lru.remove("b") == 2
        assert len(lru) == 0

    def test_get_finds_both_lists(self):
        lru = ActiveInactiveLRU()
        lru.add("a", 1)
        lru.add("b", 2)
        lru.reference("b")
        assert lru.get("a") == 1
        assert lru.get("b") == 2
        assert lru.get("c") is None

    def test_eviction_order_is_cold_first(self):
        lru = ActiveInactiveLRU()
        for key in "abc":
            lru.add(key, None)
        lru.reference("a")
        order = lru.keys_eviction_order()
        assert order.index("b") < order.index("a")

    @given(st.lists(st.tuples(st.sampled_from("arx"), st.integers(0, 15)), max_size=300))
    def test_counts_and_membership_consistent(self, operations):
        lru: ActiveInactiveLRU[int, int] = ActiveInactiveLRU()
        members: set[int] = set()
        for op, key in operations:
            if op == "a":
                lru.add(key, key)
                members.add(key)
            elif op == "r":
                lru.reference(key)
            else:
                lru.remove(key)
                members.discard(key)
            assert len(lru) == len(members)
            assert lru.active_count + lru.inactive_count == len(members)
            for member in members:
                assert member in lru
