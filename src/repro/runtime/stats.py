"""Streaming quantile estimation for fleet-scale serving reports.

``ServingReport`` keeps every per-job latency by default — exact
nearest-rank percentiles, but O(jobs) memory.  At million-job scale
the fast engine can opt into streaming estimation instead
(``streaming_quantiles``, applied in
:func:`repro.runtime.serving.build_report`) through
:class:`ReservoirQuantiles`: bottom-k uniform random keys, which is
exactly a uniform sample without replacement of the observed values.
It is vectorizable (whole numpy batches in one call) and
distribution-free: quantiles of the reservoir converge to the true
quantiles at O(1/sqrt(k)).  The test suite bounds its rank error
against exact percentiles on adversarial and smooth distributions.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np


class ReservoirQuantiles:
    """Bottom-k reservoir holding a uniform sample of the stream.

    Each value gets a uniform random key; the reservoir keeps the k
    smallest-keyed values.  That is precisely a uniform sample without
    replacement, so any quantile of the reservoir estimates the
    stream's — one structure covers p50/p95/p99 together.  Batch adds
    are vectorized: draw keys for the whole batch, concatenate, and
    ``argpartition`` back down to k.
    """

    __slots__ = ("capacity", "_rng", "_keys", "_values", "_count")

    def __init__(self, capacity: int = 4096, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._rng = np.random.default_rng(seed)
        self._keys = np.empty(0, dtype=np.float64)
        self._values = np.empty(0, dtype=np.float64)
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def add(self, x: float) -> None:
        self.add_array(np.array([x], dtype=np.float64))

    def add_array(self, xs: np.ndarray) -> None:
        xs = np.asarray(xs, dtype=np.float64).ravel()
        if xs.size == 0:
            return
        self._count += int(xs.size)
        keys = self._rng.random(xs.size)
        merged_keys = np.concatenate([self._keys, keys])
        merged_values = np.concatenate([self._values, xs])
        if merged_keys.size > self.capacity:
            keep = np.argpartition(merged_keys, self.capacity)
            keep = keep[:self.capacity]
            merged_keys = merged_keys[keep]
            merged_values = merged_values[keep]
        self._keys = merged_keys
        self._values = merged_values

    def quantile(self, q: float) -> float:
        if self._count == 0:
            raise ValueError("no observations")
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        ordered = np.sort(self._values)
        # Nearest-rank, matching ServingReport's exact percentile.
        rank = max(0, math.ceil(q * ordered.size) - 1)
        return float(ordered[rank])

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        return [self.quantile(q) for q in qs]


__all__ = ["ReservoirQuantiles"]
