"""Shared fixtures: small CKKS instantiations reused across test modules.

Key generation dominates test runtime, so the schemes are session-scoped
and tests must not mutate them (create fresh ciphertexts instead).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.fhe import CkksParams, CkksScheme

# Hypothesis profiles: "ci" derandomizes every property test (examples
# are derived from the test body, not an RNG), so CI runs — including
# the striped-lowering suite — are reproducible run to run.  Locally
# the default profile keeps exploring fresh examples.  Select with
# HYPOTHESIS_PROFILE=ci (the workflow sets it).
settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)
settings.register_profile("default", settings.default)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running end-to-end test (deselect with "
        "-m 'not slow')")


@pytest.fixture(scope="session")
def small_params() -> CkksParams:
    """Tiny parameter set for fast functional tests (toy security)."""
    return CkksParams(ring_degree=64, num_limbs=5, scale_bits=25, dnum=2,
                      hamming_weight=8, first_prime_bits=30, seed=101)


@pytest.fixture(scope="session")
def small_scheme(small_params) -> CkksScheme:
    """A fully keyed scheme over the small parameter set."""
    return CkksScheme(small_params, rotations=[1, 2, 3, 5, 8])


@pytest.fixture(scope="session")
def deep_scheme() -> CkksScheme:
    """A deeper chain for multi-level tests (still toy security)."""
    params = CkksParams(ring_degree=64, num_limbs=9, scale_bits=24,
                        dnum=3, hamming_weight=8, first_prime_bits=29,
                        seed=202)
    return CkksScheme(params, rotations=[1, 4])


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic per-test RNG."""
    return np.random.default_rng(0xFAB)
