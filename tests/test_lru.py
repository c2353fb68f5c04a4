"""Tests for LRU structures (repro.mem.lru)."""

import math
import random

from hypothesis import given, settings
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


# ---------------------------------------------------------------------------
# Model-based check: both structures against plain-list reference models,
# on random operation sequences (short ones from hypothesis directly, and
# delete-heavy runs of thousands of operations driven by a drawn seed, so
# pop-oldest is exercised after many removals have churned the lists).
# ---------------------------------------------------------------------------


class ListLRUModel:
    """LRUList semantics on a list of (key, value) pairs, LRU first."""

    def __init__(self):
        self.items: list[tuple] = []

    def index(self, key):
        for position, (candidate, _) in enumerate(self.items):
            if candidate == key:
                return position
        return None

    def get(self, key):
        position = self.index(key)
        return None if position is None else self.items[position][1]

    def add(self, key, value):
        self.remove(key)
        self.items.append((key, value))

    def touch(self, key):
        position = self.index(key)
        if position is None:
            return False
        self.items.append(self.items.pop(position))
        return True

    def remove(self, key):
        position = self.index(key)
        return None if position is None else self.items.pop(position)[1]

    def pop_lru(self):
        return self.items.pop(0) if self.items else None

    def peek_lru(self):
        return self.items[0] if self.items else None

    def keys(self):
        return [key for key, _ in self.items]


class TwoListModel:
    """ActiveInactiveLRU semantics on two ListLRUModels."""

    def __init__(self, inactive_ratio=0.5):
        self.ratio = inactive_ratio
        self.active = ListLRUModel()
        self.inactive = ListLRUModel()

    def add(self, key, value):
        self.active.remove(key)
        self.inactive.add(key, value)

    def reference(self, key):
        position = self.inactive.index(key)
        if position is not None:
            self.active.add(*self.inactive.items.pop(position))
            return True
        return self.active.touch(key)

    def remove(self, key):
        if self.inactive.index(key) is not None:
            return self.inactive.remove(key)
        return self.active.remove(key)

    def get(self, key):
        if self.inactive.index(key) is not None:
            return self.inactive.get(key)
        return self.active.get(key)

    def scan_inactive(self, max_scan):
        if max_scan <= 0:
            return []
        total = len(self.active.items) + len(self.inactive.items)
        needed = math.ceil(total * self.ratio)
        while len(self.inactive.items) < needed and self.active.items:
            self.inactive.items.append(self.active.items.pop(0))
        victims = []
        while len(victims) < max_scan and self.inactive.items:
            victims.append(self.inactive.items.pop(0))
        return victims

    def eviction_order(self):
        return self.inactive.keys() + self.active.keys()


LIST_OPS = ("add", "touch", "remove", "pop_lru", "peek_lru", "get")
TWO_LIST_OPS = ("add", "reference", "reference_bulk", "remove", "scan_inactive", "get")


def apply_list_op(lru, model, op, key, value):
    if op == "add":
        lru.add(key, value)
        model.add(key, value)
    elif op == "touch":
        assert lru.touch(key) == model.touch(key)
    elif op == "remove":
        assert lru.remove(key) == model.remove(key)
    elif op == "pop_lru":
        assert lru.pop_lru() == model.pop_lru()
    elif op == "peek_lru":
        assert lru.peek_lru() == model.peek_lru()
    else:
        assert lru.get(key) == model.get(key)


def apply_two_list_op(lru, model, op, key, value, bulk_keys):
    if op == "add":
        lru.add(key, value)
        model.add(key, value)
    elif op == "reference":
        assert lru.reference(key) == model.reference(key)
    elif op == "reference_bulk":
        # Distinct keys in last-use order, possibly absent ones too.
        lru.reference_bulk(bulk_keys)
        for bulk_key in bulk_keys:
            model.reference(bulk_key)
    elif op == "remove":
        assert lru.remove(key) == model.remove(key)
    elif op == "scan_inactive":
        assert lru.scan_inactive(value % 4) == model.scan_inactive(value % 4)
    else:
        assert lru.get(key) == model.get(key)


def check_list_state(lru, model):
    assert len(lru) == len(model.items)
    assert lru.keys_lru_order() == list(lru) == model.keys()


def check_two_list_state(lru, model):
    assert lru.inactive_count == len(model.inactive.items)
    assert lru.active_count == len(model.active.items)
    assert lru.keys_eviction_order() == model.eviction_order()
    assert list(lru.iter_eviction_order()) == model.eviction_order()


def random_ops(rng, ops, weights, n_ops, n_keys):
    for _ in range(n_ops):
        op = rng.choices(ops, weights)[0]
        bulk = list(dict.fromkeys(rng.randrange(n_keys) for _ in range(rng.randrange(6))))
        yield op, rng.randrange(n_keys), rng.randrange(1_000), bulk


class TestAgainstListModel:
    @given(
        st.lists(
            st.tuples(st.sampled_from(LIST_OPS), st.integers(0, 9), st.integers(0, 99)),
            max_size=200,
        )
    )
    def test_lru_list_short_sequences(self, operations):
        lru, model = LRUList(), ListLRUModel()
        for op, key, value in operations:
            apply_list_op(lru, model, op, key, value)
            check_list_state(lru, model)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(TWO_LIST_OPS),
                st.integers(0, 11),
                st.integers(0, 99),
                st.lists(st.integers(0, 13), max_size=6, unique=True),
            ),
            max_size=200,
        ),
        st.sampled_from([0.25, 0.5, 0.75]),
    )
    def test_two_list_short_sequences(self, operations, ratio):
        lru, model = ActiveInactiveLRU(ratio), TwoListModel(ratio)
        for op, key, value, bulk in operations:
            apply_two_list_op(lru, model, op, key, value, bulk)
            check_two_list_state(lru, model)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lru_list_delete_heavy(self, seed):
        rng = random.Random(seed)
        lru, model = LRUList(), ListLRUModel()
        weights = (4, 1, 3, 3, 1, 1)
        for op, key, value, _ in random_ops(rng, LIST_OPS, weights, 3_000, 200):
            apply_list_op(lru, model, op, key, value)
        check_list_state(lru, model)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_two_list_delete_heavy(self, seed):
        rng = random.Random(seed)
        lru, model = ActiveInactiveLRU(), TwoListModel()
        weights = (5, 2, 1, 3, 2, 1)
        for op, key, value, bulk in random_ops(rng, TWO_LIST_OPS, weights, 3_000, 200):
            apply_two_list_op(lru, model, op, key, value, bulk)
        check_two_list_state(lru, model)
