"""Streaming-percentile estimators: error bounds vs exact ranks.

The fleet-scale opt-in (``streaming_quantiles``) trades exact
percentiles for O(1)-memory estimators; these tests pin the trade's
price.  Reservoir quantiles get a distribution-free rank-error bound
(the sample holds a uniform subset, so quantile ranks concentrate).
"""

import math
import random

import numpy as np
import pytest

from repro.runtime.stats import ReservoirQuantiles


def exact_quantile(values, q):
    """Nearest-rank on the full data — the DES report's definition."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def _distributions():
    rng = random.Random(7)
    smooth = [rng.expovariate(1.0) for _ in range(50_000)]
    # Adversarial: heavy ties, a huge outlier tail, sorted arrival
    # order (worst case for naive streaming estimators).
    spiky = sorted([0.001] * 20_000 + [1.0] * 20_000
                   + [rng.uniform(50, 5000) for _ in range(10_000)])
    bimodal = ([rng.gauss(1.0, 0.05) for _ in range(25_000)]
               + [rng.gauss(100.0, 5.0) for _ in range(25_000)])
    return {"smooth": smooth, "spiky": spiky, "bimodal": bimodal}


class TestReservoirQuantiles:
    @pytest.mark.parametrize("name", ["smooth", "spiky", "bimodal"])
    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_rank_error_bound(self, name, q):
        """The estimate must sit within a small *rank* window of the
        exact percentile: |F(estimate) - q| <= 4 / sqrt(capacity).
        Rank error is the right metric — it is distribution-free,
        where a value-relative bound would be meaningless for the
        spiky tail."""
        values = _distributions()[name]
        reservoir = ReservoirQuantiles(capacity=8192, seed=0)
        reservoir.add_array(np.asarray(values))
        estimate = reservoir.quantile(q)
        ordered = sorted(values)
        # The estimate's rank is an *interval* when values tie (an
        # atom spans [lo, hi) of the CDF); the error is the distance
        # from q to that interval — zero whenever the atom covers q.
        n = len(ordered)
        lo = np.searchsorted(ordered, estimate, side="left") / n
        hi = np.searchsorted(ordered, estimate, side="right") / n
        rank_error = max(lo - q, q - hi, 0.0)
        assert rank_error <= 4.0 / math.sqrt(8192)

    def test_small_samples_are_exact(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        reservoir = ReservoirQuantiles(capacity=64, seed=0)
        for v in values:
            reservoir.add(v)
        for q in (0.01, 0.5, 0.95, 1.0):
            assert reservoir.quantile(q) == exact_quantile(values, q)

    def test_add_scalar_matches_add_array(self):
        rng = random.Random(0)
        values = [rng.random() for _ in range(5000)]
        one = ReservoirQuantiles(capacity=256, seed=3)
        two = ReservoirQuantiles(capacity=256, seed=3)
        for v in values:
            one.add(v)
        two.add_array(np.asarray(values))
        for q in (0.5, 0.9, 0.99):
            assert one.quantile(q) == two.quantile(q)

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ReservoirQuantiles(capacity=0)
        reservoir = ReservoirQuantiles()
        with pytest.raises(ValueError, match="no observations"):
            reservoir.quantile(0.5)
        reservoir.add(1.0)
        with pytest.raises(ValueError, match="q must be"):
            reservoir.quantile(0.0)
        with pytest.raises(ValueError, match="q must be"):
            reservoir.quantile(1.5)
        assert reservoir.quantiles([0.5, 0.99]) == [1.0, 1.0]
