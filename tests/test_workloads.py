"""Tests for the workload generators."""

import re

import pytest

from repro.analysis.pattern_windows import window_fractions
from repro.workloads.base import materialize_columns
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.numpy_matmul import NumpyMatmulWorkload
from repro.workloads.patterns import (
    RandomWorkload,
    SequentialWorkload,
    StrideWorkload,
    ZipfianWorkload,
)
from repro.sim.process import PageAccess
from repro.workloads.powergraph import PowerGraphWorkload
from repro.workloads.segments import SegmentMixWorkload
from repro.workloads.trace_io import TraceFormatError, load_trace, save_trace
from repro.workloads.voltdb import VoltDBWorkload

from test_kernel import access_tuples

ALL_WORKLOADS = [
    lambda: SequentialWorkload(512, 2_000, seed=3),
    lambda: StrideWorkload(512, 2_000, stride=10, seed=3),
    lambda: RandomWorkload(512, 2_000, seed=3),
    lambda: ZipfianWorkload(512, 2_000, skew=1.1, seed=3),
    lambda: PowerGraphWorkload(2_048, 4_000, seed=3),
    lambda: NumpyMatmulWorkload(2_048, 4_000, seed=3),
    lambda: VoltDBWorkload(2_048, 4_000, seed=3),
    lambda: MemcachedWorkload(2_048, 4_000, seed=3),
]


def vpns(workload) -> list[int]:
    return materialize_columns(workload)[0].tolist()


class TestContracts:
    @pytest.mark.parametrize("factory", ALL_WORKLOADS)
    def test_length_and_bounds(self, factory):
        workload = factory()
        vpn, _, think_ns = materialize_columns(workload)
        assert len(vpn) == workload.total_accesses
        assert 0 <= vpn.min() and vpn.max() < workload.wss_pages
        assert (think_ns == workload.think_ns).all()

    @pytest.mark.parametrize("factory", ALL_WORKLOADS)
    def test_determinism(self, factory):
        assert access_tuples(factory()) == access_tuples(factory())

    def test_different_seeds_differ(self):
        a = vpns(PowerGraphWorkload(2_048, 2_000, seed=1))
        b = vpns(PowerGraphWorkload(2_048, 2_000, seed=2))
        assert a != b

    def test_write_fraction_roughly_respected(self):
        workload = PowerGraphWorkload(2_048, 8_000, seed=3)
        _, is_write, _ = materialize_columns(workload)
        assert 0.15 < is_write.mean() < 0.35  # configured 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialWorkload(0, 100)
        with pytest.raises(ValueError):
            SequentialWorkload(100, 0)
        with pytest.raises(ValueError):
            StrideWorkload(100, 100, stride=0)
        with pytest.raises(ValueError):
            ZipfianWorkload(100, 100, skew=0)


class TestPatternShapes:
    def test_sequential_is_sequential(self):
        trace = vpns(SequentialWorkload(128, 400, seed=1))
        assert trace[:5] == [0, 1, 2, 3, 4]
        assert trace[128] == 0  # wraps into a new pass

    def test_stride_visits_every_page(self):
        workload = StrideWorkload(100, 100, stride=10, seed=1)
        assert set(vpns(workload)) == set(range(100))

    def test_stride_deltas_constant_within_sweep(self):
        trace = vpns(StrideWorkload(1_000, 90, stride=10))
        deltas = {b - a for a, b in zip(trace, trace[1:])}
        assert deltas == {10}

    def test_zipf_concentrates_access(self):
        workload = ZipfianWorkload(1_000, 10_000, skew=1.3, seed=1)
        counts: dict[int, int] = {}
        for vpn in vpns(workload):
            counts[vpn] = counts.get(vpn, 0) + 1
        top = sorted(counts.values(), reverse=True)[:50]
        assert sum(top) > 0.4 * workload.total_accesses

    def test_random_spreads_access(self):
        workload = RandomWorkload(1_000, 10_000, seed=1)
        assert len(set(vpns(workload))) > 900


class TestApplicationMixes:
    """The Figure 3-facing characteristics of the synthetic apps."""

    def test_memcached_mostly_irregular(self):
        workload = MemcachedWorkload(4_096, 20_000, seed=5)
        fractions = window_fractions(vpns(workload), window=8, majority=True)
        assert fractions.other > 0.8

    def test_numpy_mostly_patterned(self):
        workload = NumpyMatmulWorkload(4_096, 20_000, seed=5)
        fractions = window_fractions(vpns(workload), window=8, majority=True)
        assert fractions.sequential + fractions.stride > 0.6

    def test_powergraph_has_all_three(self):
        workload = PowerGraphWorkload(4_096, 20_000, seed=5)
        fractions = window_fractions(vpns(workload), window=8, majority=True)
        assert fractions.sequential > 0.2
        assert fractions.other > 0.1

    def test_voltdb_majority_irregular(self):
        workload = VoltDBWorkload(4_096, 20_000, seed=5)
        fractions = window_fractions(vpns(workload), window=8, majority=True)
        assert fractions.other > 0.3

    def test_throughput_metadata(self):
        voltdb = VoltDBWorkload(2_048, 4_000)
        assert voltdb.accesses_per_op == 8
        assert voltdb.total_ops == 500
        memcached = MemcachedWorkload(2_048, 4_000)
        assert memcached.accesses_per_op == 2
        assert memcached.total_ops == 2_000


class TestSegmentMixValidation:
    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            SegmentMixWorkload(
                128, 100,
                sequential_weight=-1, stride_weight=0, irregular_weight=1,
            )

    def test_bad_interleave_rejected(self):
        with pytest.raises(ValueError):
            SegmentMixWorkload(
                128, 100,
                sequential_weight=1, stride_weight=0, irregular_weight=0,
                interleave=0,
            )

    def test_bad_hot_fraction_rejected(self):
        with pytest.raises(ValueError):
            SegmentMixWorkload(
                128, 100,
                sequential_weight=1, stride_weight=0, irregular_weight=0,
                hot_fraction=1.5,
            )

    def test_bad_region_fraction_rejected(self):
        with pytest.raises(ValueError):
            SegmentMixWorkload(
                128, 100,
                sequential_weight=1, stride_weight=0, irregular_weight=0,
                region_fraction=0.0,
            )

    def test_pure_sequential_mix(self):
        workload = SegmentMixWorkload(
            256, 1_000, seed=1,
            sequential_weight=1.0, stride_weight=0.0, irregular_weight=0.0,
        )
        trace = vpns(workload)
        deltas = [b - a for a, b in zip(trace, trace[1:])]
        assert deltas.count(1) / len(deltas) > 0.9

    def test_hot_region_bounds_irregular_targets(self):
        workload = SegmentMixWorkload(
            1_000, 2_000, seed=1,
            sequential_weight=0.0, stride_weight=0.0, irregular_weight=1.0,
            hot_fraction=0.2, irregular_skew=1.0,
        )
        assert max(vpns(workload)) < 200  # hot region = first 20% of pages


class TestTraceRoundTrip:
    """save_trace/load_trace must reproduce a recording exactly —
    scenarios replay recorded traces, so nothing may be lost."""

    def make_accesses(self):
        return [
            PageAccess(vpn=3, is_write=False, think_ns=500),
            PageAccess(vpn=7, is_write=True, think_ns=500),
            PageAccess(vpn=0, is_write=False, think_ns=2_500),  # think override
            PageAccess(vpn=9, is_write=True, think_ns=0),  # another override
        ]

    def test_exact_round_trip(self, tmp_path):
        path = tmp_path / "t.trace"
        accesses = self.make_accesses()
        written = save_trace(path, accesses, wss_pages=16, think_ns=500, name="bug-42")
        assert written == len(accesses)
        loaded = load_trace(path)
        assert access_tuples(loaded) == accesses
        assert loaded.wss_pages == 16
        assert loaded.think_ns == 500
        assert loaded.name == "bug-42"
        assert loaded.total_accesses == len(accesses)

    def test_double_round_trip_is_stable(self, tmp_path):
        first = tmp_path / "a.trace"
        second = tmp_path / "b.trace"
        save_trace(first, self.make_accesses(), wss_pages=16, think_ns=500, name="x")
        loaded = load_trace(first)
        save_trace(
            second,
            access_tuples(loaded),
            wss_pages=loaded.wss_pages,
            think_ns=loaded.think_ns,
            name=loaded.name,
        )
        assert first.read_text() == second.read_text()

    def test_workload_recording_round_trips(self, tmp_path):
        workload = ZipfianWorkload(128, 500, seed=9, write_fraction=0.3)
        path = tmp_path / "zipf.trace"
        save_trace(
            path, access_tuples(workload), wss_pages=128, think_ns=workload.think_ns
        )
        loaded = load_trace(path)
        assert access_tuples(loaded) == access_tuples(workload)

    def test_numeric_looking_name_survives(self, tmp_path):
        """A digit-and-underscore name must stay a string — int()
        accepts underscore separators and would mangle it to 202607."""
        path = tmp_path / "t.trace"
        save_trace(path, self.make_accesses(), wss_pages=16, think_ns=500, name="2026_07")
        assert load_trace(path).name == "2026_07"

    def test_rejects_multi_token_name(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace(tmp_path / "t", [], wss_pages=4, name="two words")

    def test_rejects_unknown_flag(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# repro-trace v1\n# wss_pages=4 think_ns=0 name=x\n1,q\n")
        with pytest.raises(TraceFormatError, match=r"t\.trace:3: unknown flag"):
            load_trace(path)

    def test_rejects_bad_vpn_and_empty(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# repro-trace v1\n# wss_pages=4 think_ns=0\nnope\n")
        with pytest.raises(TraceFormatError, match=r"t\.trace:3: bad vpn"):
            load_trace(path)
        path.write_text("# repro-trace v1\n# wss_pages=4 think_ns=0\n")
        with pytest.raises(TraceFormatError, match=r"t\.trace: trace holds no accesses"):
            load_trace(path)

    def test_out_of_range_vpn_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# repro-trace v1\n# wss_pages=4 think_ns=0\n1\n99\n")
        expected = f"^{re.escape(str(path))}: .*outside wss 4"
        with pytest.raises(TraceFormatError, match=expected):
            load_trace(path)
