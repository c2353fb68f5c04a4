"""Deterministic random number generation for the simulator.

Every stochastic model in the reproduction (block-layer batching noise,
disk seek jitter, Zipfian key popularity, TPC-C NURand, ...) draws from
a :class:`SimRandom` seeded from a single experiment seed plus a stable
string label.  Two properties follow:

* runs are exactly reproducible given the experiment seed, and
* adding a new consumer of randomness does not perturb the streams seen
  by existing consumers (each label gets an independent stream), which
  keeps benchmark results comparable across code changes.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from typing import Sequence


#: Default batch size for pre-drawn sample pools (see
#: :meth:`SimRandom.lognormal_pool`).  1024 i.i.d. draws preserve the
#: medians and tails the paper's figures assert on while letting hot
#: loops replace per-event ``exp``/``gauss`` with an index increment.
DEFAULT_POOL_SIZE = 1024


class SamplePool:
    """A pre-drawn batch of samples consumed round-robin.

    Hot latency models draw their batch once (deterministically, from
    a labelled stream) and then cycle through it; ``draw()`` costs an
    index increment instead of an ``exp``/``gauss`` per event.
    """

    __slots__ = ("_values", "_index", "_size")

    def __init__(self, values: list) -> None:
        if not values:
            raise ValueError("sample pool cannot be empty")
        self._values = values
        self._index = 0
        self._size = len(values)

    def __len__(self) -> int:
        return self._size

    @property
    def position(self) -> int:
        """Samples consumed since the last wrap (diagnostics/tests)."""
        return self._index

    def draw(self):
        index = self._index
        self._index = index + 1 if index + 1 < self._size else 0
        return self._values[index]


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a child seed from *root_seed* and a stable *label*."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _zipf_cdf(n_items: int, skew: float) -> list[float]:
    """Cumulative popularity of ``n_items`` ranks under a Zipf(skew) law."""
    if n_items <= 0:
        raise ValueError(f"need at least one item, got {n_items}")
    weights = [1.0 / (rank**skew) for rank in range(1, n_items + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def _bisect_cdf(cdf: list[float], u: float) -> int:
    """Index of the first CDF entry >= u (inverse-transform sampling).

    ``bisect_left`` computes exactly that boundary (every entry to the
    left is < u) in C; the final min() guards the u == 1.0 edge the old
    hand-rolled loop clamped implicitly.
    """
    return min(bisect_left(cdf, u), len(cdf) - 1)


class SimRandom:
    """A labelled, deterministic random stream.

    Thin wrapper over :class:`random.Random` adding the distributions
    the latency and workload models need (log-normal in nanoseconds,
    Zipf via inverse-transform sampling with a cached CDF).
    """

    def __init__(self, root_seed: int, label: str) -> None:
        self.label = label
        self._rng = random.Random(derive_seed(root_seed, label))
        self._zipf_tables: dict[tuple[int, float], list[float]] = {}

    def spawn(self, sublabel: str) -> "SimRandom":
        """Create an independent child stream."""
        return SimRandom(self._rng.randrange(2**63), f"{self.label}/{sublabel}")

    # -- primitive draws -------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        """Inclusive-range integer draw."""
        return self._rng.randint(low, high)

    def randrange(self, stop: int) -> int:
        return self._rng.randrange(stop)

    def choice(self, seq: Sequence):
        return self._rng.choice(seq)

    def sample(self, population: Sequence, k: int) -> list:
        return self._rng.sample(population, k)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    # -- latency-model draws ---------------------------------------------
    def lognormal_ns(self, median_ns: int, sigma: float) -> int:
        """Draw an integer-nanosecond latency from a log-normal.

        Parameterized by the *median* (``exp(mu)``) because the paper
        reports medians; ``sigma`` controls tail heaviness.  The result
        is clamped to at least 1 ns so latencies are always positive.
        """
        if median_ns <= 0:
            raise ValueError(f"median must be positive, got {median_ns}")
        value = math.exp(math.log(median_ns) + sigma * self._rng.gauss(0.0, 1.0))
        return max(1, int(round(value)))

    def lognormal_pool(self, median_ns: int, sigma: float, size: int) -> list[int]:
        """Pre-draw *size* log-normal samples in one batch.

        Hot latency models cycle through a pooled batch instead of
        paying ``exp``/``gauss`` per event; the pool is drawn from this
        stream at build time, so runs stay exactly reproducible.
        """
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        if sigma == 0.0:
            return [max(1, int(median_ns))] * size
        log_median = math.log(median_ns)
        gauss = self._rng.gauss
        return [
            max(1, int(round(math.exp(log_median + sigma * gauss(0.0, 1.0)))))
            for _ in range(size)
        ]

    def random_array(self, count: int):
        """Draw *count* uniform floats in one batch, bit-exact with
        *count* sequential :meth:`random` calls.

        :meth:`random` builds each double from the next two 32-bit
        Mersenne Twister words, ``(a >> 5) * 2**26 + (b >> 6)`` scaled
        by ``2**-53``.  ``getrandbits(64 * count)`` returns the next
        ``2 * count`` words of the same stream as one little-endian
        integer, first word lowest, so the batch does that arithmetic
        on the words as arrays (exact in float64) and consumes exactly
        what the scalar calls would — callers may freely interleave
        scalar and batched draws.  Used by the columnar workload
        generators; requires numpy (not ``numpy.random``).
        """
        import numpy as np

        if count <= 0:
            return np.empty(0, dtype=np.float64)
        bits = self._rng.getrandbits(64 * count)
        words = np.frombuffer(bits.to_bytes(8 * count, "little"), dtype="<u4")
        high = (words[0::2] >> 5).astype(np.float64)
        low = (words[1::2] >> 6).astype(np.float64)
        return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)

    def zipf(self, n_items: int, skew: float) -> int:
        """Draw an item index in ``[0, n_items)`` with Zipfian popularity."""
        key = (n_items, skew)
        table = self._zipf_tables.get(key)
        if table is None:
            table = _zipf_cdf(n_items, skew)
            self._zipf_tables[key] = table
        return _bisect_cdf(table, self._rng.random())

    def __repr__(self) -> str:
        return f"SimRandom(label={self.label!r})"
