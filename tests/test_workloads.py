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
from repro.trace.convert import convert_trace
from repro.trace.format import TraceFormatError
from repro.workloads.powergraph import PowerGraphWorkload
from repro.workloads.segments import SegmentMixWorkload
from repro.workloads.voltdb import VoltDBWorkload

from test_kernel import access_tuples
from v1_text import import_v1, write_v1_trace

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
    """Importing a v1 text recording must reproduce it exactly —
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
        written = write_v1_trace(path, accesses, wss_pages=16, think_ns=500, name="bug-42")
        assert written == len(accesses)
        loaded = import_v1(path)
        assert access_tuples(loaded) == accesses
        assert loaded.wss_pages == 16
        assert loaded.think_ns == 500
        assert loaded.name == "bug-42"
        assert loaded.total_accesses == len(accesses)

    def test_double_round_trip_is_stable(self, tmp_path):
        # Importing the same text twice writes the same v2 bytes.
        source = tmp_path / "a.trace"
        write_v1_trace(source, self.make_accesses(), wss_pages=16, think_ns=500, name="x")
        first, second = tmp_path / "a.rtrace", tmp_path / "b.rtrace"
        convert_trace(source, first)
        convert_trace(source, second)
        assert first.read_bytes() == second.read_bytes()

    def test_workload_recording_round_trips(self, tmp_path):
        workload = ZipfianWorkload(128, 500, seed=9, write_fraction=0.3)
        path = tmp_path / "zipf.trace"
        write_v1_trace(
            path, access_tuples(workload), wss_pages=128, think_ns=workload.think_ns
        )
        loaded = import_v1(path)
        assert access_tuples(loaded) == access_tuples(workload)

    def test_numeric_looking_name_survives(self, tmp_path):
        """A digit-and-underscore name must stay a string — int()
        accepts underscore separators and would mangle it to 202607."""
        path = tmp_path / "t.trace"
        write_v1_trace(path, self.make_accesses(), wss_pages=16, think_ns=500, name="2026_07")
        assert import_v1(path).name == "2026_07"

    def test_rejects_unknown_flag(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# repro-trace v1\n# wss_pages=4 think_ns=0 name=x\n1,q\n")
        with pytest.raises(TraceFormatError, match=r"t\.trace:3: unknown flag"):
            convert_trace(path, tmp_path / "t.rtrace")

    def test_rejects_bad_vpn_and_empty(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# repro-trace v1\n# wss_pages=4 think_ns=0\nnope\n")
        with pytest.raises(TraceFormatError, match=r"t\.trace:3: bad vpn"):
            convert_trace(path, tmp_path / "t.rtrace")
        path.write_text("# repro-trace v1\n# wss_pages=4 think_ns=0\n")
        with pytest.raises(TraceFormatError, match=r"t\.trace: trace holds no accesses"):
            convert_trace(path, tmp_path / "t.rtrace")

    def test_out_of_range_vpn_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# repro-trace v1\n# wss_pages=4 think_ns=0\n1\n99\n")
        expected = f"^{re.escape(str(path))}: .*outside wss 4"
        with pytest.raises(TraceFormatError, match=expected):
            convert_trace(path, tmp_path / "t.rtrace")
