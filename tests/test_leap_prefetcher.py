"""Tests for the LeapPrefetcher (DoPrefetch, Algorithm 2) and tracker."""

import pytest

from repro.core.prefetcher import LeapPrefetcher
from repro.core.sharded_tracker import ShardedLeapTracker

PID = 1


def drive_faults(prefetcher, vpns, hit_all_prefetches=False):
    """Feed faults; optionally credit every candidate as a later hit."""
    issued = []
    for vpn in vpns:
        key = (PID, vpn)
        prefetcher.on_fault(key, now=0, cache_hit=False)
        candidates = prefetcher.candidates(key, now=0)
        issued.append(candidates)
        if hit_all_prefetches:
            for candidate in candidates:
                prefetcher.on_prefetch_hit(candidate, now=0)
    return issued


class TestBootstrapAndSteadyState:
    def test_no_history_no_candidates(self):
        prefetcher = LeapPrefetcher(PID)
        prefetcher.on_fault((PID, 100), 0, False)
        assert prefetcher.candidates((PID, 100), 0) == []

    def test_stride_stream_bootstraps_prefetching(self):
        prefetcher = LeapPrefetcher(PID)
        issued = drive_faults(prefetcher, range(0, 200, 10))
        assert any(issued), "a clean stride stream must trigger prefetching"

    def test_candidates_follow_detected_stride(self):
        prefetcher = LeapPrefetcher(PID)
        issued = drive_faults(prefetcher, range(0, 300, 10), hit_all_prefetches=True)
        last = issued[-1]
        assert last, "steady-state stride should keep prefetching"
        base = 290
        assert last == [(PID, base + 10 * k) for k in range(1, len(last) + 1)]

    def test_window_grows_to_max_with_hits(self):
        prefetcher = LeapPrefetcher(PID, max_window=8)
        issued = drive_faults(prefetcher, range(0, 500, 10), hit_all_prefetches=True)
        assert len(issued[-1]) == 8

    def test_window_stays_small_without_hits(self):
        prefetcher = LeapPrefetcher(PID, max_window=8)
        issued = drive_faults(prefetcher, range(0, 500, 10), hit_all_prefetches=False)
        # Trend followed but nothing consumed → probe size 1 forever.
        assert all(len(batch) <= 1 for batch in issued)

    def test_negative_stride_candidates_stay_non_negative(self):
        prefetcher = LeapPrefetcher(PID)
        issued = drive_faults(prefetcher, range(300, 0, -10), hit_all_prefetches=True)
        for batch in issued:
            for _, vpn in batch:
                assert vpn >= 0


class TestIrregularityHandling:
    def test_random_stream_suspends_prefetching(self):
        prefetcher = LeapPrefetcher(PID)
        import random

        rng = random.Random(7)
        vpns = [rng.randrange(100_000) for _ in range(300)]
        issued = drive_faults(prefetcher, vpns)
        tail = issued[50:]
        issued_pages = sum(len(batch) for batch in tail)
        assert issued_pages <= len(tail) * 0.2, (
            "random access must throttle prefetching (adaptive suspension)"
        )

    def test_speculative_prefetch_rides_last_trend(self):
        prefetcher = LeapPrefetcher(PID, history_size=8)
        drive_faults(prefetcher, range(0, 120, 10), hit_all_prefetches=True)
        assert prefetcher.last_trend == 10
        # One irregular fault: trend detection may fail, but with past
        # hits banked the prefetcher speculates along the last trend
        # instead of stopping (Algorithm 2 line 25).
        key = (PID, 5000)
        prefetcher.on_fault(key, 0, False)
        candidates = prefetcher.candidates(key, 0)
        assert candidates, "speculation must continue through one outlier"
        assert candidates[0] == (PID, 5010)

    def test_zero_trend_yields_nothing(self):
        prefetcher = LeapPrefetcher(PID)
        drive_faults(prefetcher, [42] * 50, hit_all_prefetches=True)
        key = (PID, 42)
        prefetcher.on_fault(key, 0, False)
        assert prefetcher.candidates(key, 0) == []

    def test_reset_clears_state(self):
        prefetcher = LeapPrefetcher(PID)
        drive_faults(prefetcher, range(0, 100, 5), hit_all_prefetches=True)
        prefetcher.reset()
        assert prefetcher.last_trend is None
        assert len(prefetcher.history) == 0


class TestProcessIsolation:
    def test_wrong_pid_rejected(self):
        prefetcher = LeapPrefetcher(PID)
        with pytest.raises(ValueError):
            prefetcher.on_fault((PID + 1, 0), 0, False)

    def test_tracker_isolates_processes(self):
        tracker = ShardedLeapTracker()
        # Process 1 strides by 10; process 2 strides by 3, interleaved.
        for step in range(100):
            tracker.on_fault((1, step * 10), 0, False)
            tracker.on_fault((2, step * 3), 0, False)
        one = tracker.active_shard(1)
        two = tracker.active_shard(2)
        assert one.history.window(4) == [10, 10, 10, 10]
        assert two.history.window(4) == [3, 3, 3, 3]

    def test_tracker_candidates_scoped_to_faulting_pid(self):
        tracker = ShardedLeapTracker()
        for step in range(50):
            key = (7, step * 4)
            tracker.on_fault(key, 0, False)
            for candidate in tracker.candidates(key, 0):
                tracker.on_prefetch_hit(candidate, 0)
        key = (7, 200)
        tracker.on_fault(key, 0, False)
        candidates = tracker.candidates(key, 0)
        assert candidates
        assert all(pid == 7 for pid, _ in candidates)

    def test_tracker_lazily_creates_per_pid_state(self):
        tracker = ShardedLeapTracker()
        assert tracker.tracked_pids == []
        tracker.on_fault((3, 1), 0, False)
        tracker.on_fault((9, 1), 0, False)
        assert tracker.tracked_pids == [3, 9]
