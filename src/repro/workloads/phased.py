"""Workloads whose access pattern changes mid-trace.

Production traffic is not stationary: a service warms its cache with a
scan, then settles into an iteration loop; a batch job alternates
between streaming and pointer chasing.  A static prefetcher choice is
tuned to *one* regime — a phase shift is exactly the situation the
control plane's :class:`~repro.control.governor.PolicyGovernor` exists
for, because whichever policy the run started with is wrong for the
other half of the trace.

:class:`PhasedWorkload` declares such a trace as data: an ordered list
of phases, each a pattern kind plus parameters and an optional share of
the access budget.  Patterns:

``sequential``
    Front-to-back scan, repeated.
``noisy-sequential``
    Sequential with a ``noise`` fraction of uniform-random jumps —
    majority-trend detection shrugs the noise off, delta-correlation
    (GHB) and strict detectors do not.
``stride``
    Fixed ``stride`` sweep (the Figure 2b pattern).
``random`` / ``zipfian``
    The irregular extremes (``skew`` for zipfian).
``permloop``
    A fixed random permutation of ``loop_pages`` pages (default: the
    whole working set) replayed in a loop: no spatial trend at all, so
    Leap and Read-Ahead collapse, while the repeat distance makes it
    the ideal temporal-correlation (GHB) pattern.

Phase dicts are JSON-shaped, so a phased tenant round-trips through
:class:`~repro.scenarios.spec.TenantSpec` params unchanged.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.sim.rng import SimRandom
from repro.workloads.base import Workload

__all__ = ["PhasedWorkload", "PHASE_KINDS"]

PHASE_KINDS = (
    "sequential",
    "noisy-sequential",
    "stride",
    "random",
    "zipfian",
    "permloop",
)


def _drawn_phase_stream(
    phase: Mapping, wss_pages: int, rng: SimRandom
) -> Iterator[int]:
    """Infinite page stream of a ``noisy-sequential`` or ``random`` phase.

    These kinds pick each page by a per-draw branch, so they have no
    closed array form and are generated one draw at a time.
    """
    if phase["kind"] == "random":
        while True:
            yield rng.randrange(wss_pages)
    noise = float(phase.get("noise", 0.3))
    if not 0.0 <= noise < 1.0:
        raise ValueError(f"noise must be in [0, 1), got {noise}")
    position = 0
    while True:
        if rng.random() < noise:
            yield rng.randrange(wss_pages)
        else:
            yield position
            position = (position + 1) % wss_pages


class PhasedWorkload(Workload):
    """Concatenate pattern phases over one working set.

    *phases* is a sequence of JSON-shaped dicts (see module docstring);
    ``fraction`` weights a phase's share of ``total_accesses`` (default:
    equal shares — weights are normalized, so they need not sum to 1).
    """

    name = "phased"

    def __init__(
        self,
        wss_pages: int,
        total_accesses: int,
        phases: Sequence[Mapping] = (),
        **kwargs,
    ) -> None:
        super().__init__(wss_pages, total_accesses, **kwargs)
        if not phases:
            raise ValueError("PhasedWorkload needs at least one phase")
        weights = []
        for phase in phases:
            if "kind" not in phase:
                raise ValueError(f"phase {phase!r} is missing its 'kind'")
            if phase["kind"] not in PHASE_KINDS:
                raise ValueError(
                    f"unknown phase kind {phase['kind']!r} (choose from {PHASE_KINDS})"
                )
            fraction = float(phase.get("fraction", 1.0))
            if fraction <= 0:
                raise ValueError(f"phase fraction must be positive, got {fraction}")
            weights.append(fraction)
        self.phases = [dict(phase) for phase in phases]
        total_weight = sum(weights)
        #: Accesses per phase; the final phase absorbs rounding so the
        #: counts always sum to ``total_accesses``.
        self.phase_accesses = [
            int(total_accesses * weight / total_weight) for weight in weights
        ]
        self.phase_accesses[-1] += total_accesses - sum(self.phase_accesses)
        self.name = "phased/" + "+".join(phase["kind"] for phase in self.phases)

    def _columnar_vpn_blocks(self, rng: SimRandom, block_size: int):
        """Per-phase arrays, each phase on its own ``phase{i}`` stream.

        Deterministic kinds (sequential, stride, permloop) emit closed
        arrays, zipfian inverts its CDF on batched uniform draws, and
        noisy-sequential/random batch their per-draw stream with
        ``fromiter`` — either way each phase contributes exactly its
        access share.
        """
        from repro.sim.rng import _zipf_cdf

        wss = self.wss_pages
        for index, (phase, count) in enumerate(zip(self.phases, self.phase_accesses)):
            phase_rng = rng.spawn(f"phase{index}")
            kind = phase["kind"]
            remaining = count
            if kind == "sequential":
                sweep = np.arange(wss, dtype=np.int64)
                while remaining > 0:
                    arr = sweep if remaining >= wss else sweep[:remaining]
                    yield arr
                    remaining -= len(arr)
            elif kind == "stride":
                stride = int(phase.get("stride", 10))
                if stride <= 0:
                    raise ValueError(f"stride must be positive, got {stride}")
                offset = 0
                while remaining > 0:
                    if offset < wss:
                        arr = np.arange(offset, wss, stride, dtype=np.int64)
                    else:
                        arr = np.array([offset], dtype=np.int64)
                    if len(arr) > remaining:
                        arr = arr[:remaining]
                    yield arr
                    remaining -= len(arr)
                    offset = (offset + 1) % stride
            elif kind == "permloop":
                loop_pages = int(phase.get("loop_pages", wss))
                if not 2 <= loop_pages <= wss:
                    raise ValueError(
                        f"loop_pages must be in [2, wss_pages={wss}], "
                        f"got {loop_pages}"
                    )
                order = list(range(loop_pages))
                phase_rng.spawn("perm").shuffle(order)
                loop = np.array(order, dtype=np.int64)
                while remaining > 0:
                    arr = loop if remaining >= loop_pages else loop[:remaining]
                    yield arr
                    remaining -= len(arr)
            elif kind == "zipfian":
                skew = float(phase.get("skew", 0.99))
                scatter = list(range(wss))
                phase_rng.spawn("scatter").shuffle(scatter)
                draw = phase_rng.spawn("zipf")
                scatter_arr = np.array(scatter, dtype=np.int64)
                cdf = np.array(_zipf_cdf(wss, skew), dtype=np.float64)
                while remaining > 0:
                    chunk = min(remaining, block_size)
                    u = draw.random_array(chunk)
                    ranks = np.minimum(
                        np.searchsorted(cdf, u, side="left"), wss - 1
                    )
                    yield scatter_arr[ranks]
                    remaining -= chunk
            else:
                stream = _drawn_phase_stream(phase, wss, phase_rng)
                while remaining > 0:
                    chunk = min(remaining, block_size)
                    yield np.fromiter(islice(stream, chunk), np.int64, count=chunk)
                    remaining -= chunk
