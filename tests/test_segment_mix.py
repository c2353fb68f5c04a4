"""Chunked segment-mix generation equals the per-access oracle.

:class:`SegmentMixWorkload` builds its columnar blocks a segment and a
burst at a time.  These tests hold them to :mod:`segment_oracle`, the
original one-vpn-at-a-time generator: over generated parameter sets in
tier-1, and at full
``paper-apps`` size (with an object-vs-vectorized run of the four
applications) in the nightly workflow (``REPRO_NIGHTLY=1``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.prefetch import application_workloads
from repro.bench.runner import BenchScale
from repro.sim.machine import Machine, leap_config
from repro.workloads.segments import SegmentMixWorkload

from segment_oracle import oracle_accesses
from test_kernel import machine_fingerprint, run_both, summary_fingerprint, unpack


def assert_matches_oracle(workload: SegmentMixWorkload, block_size: int) -> None:
    expected = list(oracle_accesses(workload))
    vpns, writes, thinks = unpack(workload, block_size)
    assert vpns == [a.vpn for a in expected]
    assert writes == [a.is_write for a in expected]
    assert thinks == [a.think_ns for a in expected]


@st.composite
def segment_mixes(draw) -> SegmentMixWorkload:
    weights = draw(
        st.tuples(*[st.sampled_from([0.0, 0.1, 0.5, 1.0])] * 3).filter(lambda w: sum(w) > 0)
    )
    # Zero-length segments are allowed, but every kind can also emit.
    low = draw(st.integers(min_value=0, max_value=6))
    span = st.integers(min_value=1, max_value=60)
    return SegmentMixWorkload(
        draw(st.integers(min_value=40, max_value=700)),
        draw(st.integers(min_value=1, max_value=1500)),
        sequential_weight=weights[0],
        stride_weight=weights[1],
        irregular_weight=weights[2],
        seq_run_pages=(low, low + draw(span)),
        strides=tuple(
            draw(st.lists(st.integers(min_value=-9, max_value=80), min_size=1, max_size=4))
        ),
        stride_run_steps=(low, low + draw(span)),
        irregular_run_steps=(low, low + draw(span)),
        irregular_skew=draw(st.none() | st.floats(min_value=0.5, max_value=2.0)),
        hot_fraction=draw(st.none() | st.floats(min_value=0.01, max_value=1.0)),
        interleave=draw(st.integers(min_value=1, max_value=8)),
        burst=draw(st.sampled_from([(1, 1), (1, 4), (2, 16), (16, 48)])),
        phase_correlated=draw(st.booleans()),
        phase_accesses=draw(st.sampled_from([(0, 3), (1, 40), (256, 1024)])),
        shard_cursors=draw(st.booleans()),
        region_fraction=draw(st.none() | st.floats(min_value=0.01, max_value=1.0)),
        region_dwell_accesses=draw(st.integers(min_value=-1, max_value=400)),
        seed=draw(st.integers(min_value=0, max_value=2**20)),
        think_ns=draw(st.sampled_from([0, 1_000, 4_000])),
        write_fraction=draw(st.sampled_from([0.0, 0.15, 0.5, 1.0])),
    )


@settings(derandomize=True, max_examples=120, deadline=None)
@given(workload=segment_mixes(), block_size=st.sampled_from([7, 64, 8192]))
def test_chunked_streams_match_per_access_oracle(workload, block_size):
    assert_matches_oracle(workload, block_size)


@pytest.mark.parametrize("strides", [(64, 0), (64, -3)])
def test_non_positive_stride_from_past_the_region_end(strides):
    # Wide strides over a 32-page region push the wrapped cursor past
    # the region end; a zero or negative stride segment then starts
    # there, so its first page already wraps.
    workload = SegmentMixWorkload(
        64,
        3000,
        sequential_weight=0.0,
        stride_weight=1.0,
        irregular_weight=0.0,
        strides=strides,
        stride_run_steps=(1, 6),
        shard_cursors=True,
        region_fraction=0.5,
        region_dwell_accesses=10_000,
        seed=3,
    )
    assert_matches_oracle(workload, 64)


@pytest.mark.nightly
@pytest.mark.skipif(
    not os.environ.get("REPRO_NIGHTLY"),
    reason="full-size paper-apps checks run in the nightly workflow (REPRO_NIGHTLY=1)",
)
@pytest.mark.parametrize("seed", range(1, 11))
def test_paper_apps_full_size(seed):
    # The paper-apps benchmark workload: the four applications at wss
    # 8192 and 75k accesses each, memory fraction 0.5 on 4 cores.
    scale = BenchScale(wss_pages=8192, accesses=75_000, seed=seed)
    for workload in application_workloads(scale).values():
        assert_matches_oracle(workload, 8192)

    def build(engine):
        workloads = dict(enumerate(application_workloads(scale).values(), start=1))
        machine = Machine(leap_config(seed=seed, engine=engine))
        result = machine.run_concurrent(workloads, cores=4, memory_fraction=0.5)
        return summary_fingerprint(result), machine_fingerprint(machine, list(workloads))

    obj, vec = run_both(build)
    assert obj == vec
