"""Unit and property tests for the negacyclic NTT."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import execute_schedule
from repro.fhe.ntt import NttContext, get_ntt_context
from repro.fhe.primes import find_ntt_prime


@pytest.fixture(scope="module")
def ctx64():
    n = 64
    q = find_ntt_prime(28, n)
    return get_ntt_context(n, q)


class TestRoundtrip:
    def test_forward_inverse_identity(self, ctx64, rng):
        a = rng.integers(0, ctx64.modulus, ctx64.ring_degree)
        assert np.array_equal(ctx64.inverse(ctx64.forward(a)), a)

    def test_inverse_forward_identity(self, ctx64, rng):
        a = rng.integers(0, ctx64.modulus, ctx64.ring_degree)
        assert np.array_equal(ctx64.forward(ctx64.inverse(a)), a)

    def test_zero_fixed_point(self, ctx64):
        z = np.zeros(ctx64.ring_degree, dtype=np.int64)
        assert np.array_equal(ctx64.forward(z), z)

    def test_constant_polynomial(self, ctx64):
        # NTT of a constant is the constant broadcast to all points.
        c = np.zeros(ctx64.ring_degree, dtype=np.int64)
        c[0] = 42
        out = ctx64.forward(c)
        assert np.all(out == 42)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**28))
    def test_roundtrip_property(self, ctx64, seed):
        local = np.random.default_rng(seed)
        a = local.integers(0, ctx64.modulus, ctx64.ring_degree)
        assert np.array_equal(ctx64.inverse(ctx64.forward(a)), a)


class TestConvolution:
    def test_matches_schoolbook(self, ctx64, rng):
        n = ctx64.ring_degree
        a = rng.integers(0, ctx64.modulus, n)
        b = rng.integers(0, ctx64.modulus, n)
        product = ctx64.pointwise_multiply(ctx64.forward(a), ctx64.forward(b))
        fast = ctx64.inverse(product)
        assert np.array_equal(fast, ctx64.negacyclic_convolution(a, b))

    def test_multiply_by_x_wraps_negacyclically(self, ctx64):
        # x^(N-1) * x = x^N = -1.
        n = ctx64.ring_degree
        q = ctx64.modulus
        a = np.zeros(n, dtype=np.int64)
        a[n - 1] = 1
        x = np.zeros(n, dtype=np.int64)
        x[1] = 1
        product = ctx64.pointwise_multiply(ctx64.forward(a), ctx64.forward(x))
        prod = ctx64.inverse(product)
        expected = np.zeros(n, dtype=np.int64)
        expected[0] = q - 1
        assert np.array_equal(prod, expected)

    def test_linearity(self, ctx64, rng):
        n = ctx64.ring_degree
        q = ctx64.modulus
        a = rng.integers(0, q, n)
        b = rng.integers(0, q, n)
        lhs = ctx64.forward((a + b) % q)
        rhs = (ctx64.forward(a) + ctx64.forward(b)) % q
        assert np.array_equal(lhs, rhs)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_convolution_commutative(self, ctx64, seed):
        local = np.random.default_rng(seed)
        n = ctx64.ring_degree
        a = local.integers(0, ctx64.modulus, n)
        b = local.integers(0, ctx64.modulus, n)
        fa, fb = ctx64.forward(a), ctx64.forward(b)
        ab = ctx64.inverse(ctx64.pointwise_multiply(fa, fb))
        ba = ctx64.inverse(ctx64.pointwise_multiply(fb, fa))
        assert np.array_equal(ab, ba)


class TestValidation:
    def test_rejects_large_modulus(self):
        with pytest.raises(ValueError):
            NttContext(64, (1 << 54) - 33)

    def test_rejects_unfriendly_modulus(self):
        with pytest.raises(ValueError):
            NttContext(64, 97)  # 97 - 1 not divisible by 128

    def test_rejects_wrong_shape(self, ctx64):
        with pytest.raises(ValueError):
            ctx64.forward(np.zeros(32, dtype=np.int64))

    def test_context_cache_returns_same_object(self):
        n = 32
        q = find_ntt_prime(20, n)
        assert get_ntt_context(n, q) is get_ntt_context(n, q)


class TestMultipleDegrees:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 128, 256])
    def test_roundtrip_across_degrees(self, n, rng):
        q = find_ntt_prime(24, n)
        ctx = get_ntt_context(n, q)
        a = rng.integers(0, q, n)
        assert np.array_equal(ctx.inverse(ctx.forward(a)), a)

    @pytest.mark.parametrize("n", [8, 64])
    def test_convolution_across_degrees(self, n, rng):
        q = find_ntt_prime(22, n)
        ctx = get_ntt_context(n, q)
        a = rng.integers(0, q, n)
        b = rng.integers(0, q, n)
        fast = ctx.inverse(ctx.pointwise_multiply(ctx.forward(a), ctx.forward(b)))
        assert np.array_equal(fast, ctx.negacyclic_convolution(a, b))


@st.composite
def limb_matrices(draw):
    """An ``(L, N)`` matrix over 1-8 NTT primes of 20-31 bits, with row
    ``i`` drawn from ``[-q_i, 2 q_i)`` (unreduced, as callers pass)."""
    n = 1 << draw(st.integers(min_value=3, max_value=10))
    bits = st.lists(st.integers(min_value=20, max_value=31), min_size=1, max_size=8)
    primes = []
    for b in draw(bits):
        primes.append(find_ntt_prime(b, n, avoid=primes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.array(primes, dtype=np.int64)[:, None]
    return primes, rng.integers(-q, 2 * q, size=(len(primes), n))


@st.composite
def mixed_stacks(draw):
    """A ``(B, L, N)`` stack over NTT primes of 25 and 31 bits, with
    entries drawn from the whole int64 range."""
    n = 1 << draw(st.integers(min_value=1, max_value=10))
    primes = []
    for b in draw(st.lists(st.sampled_from([25, 31]), min_size=1, max_size=4)):
        primes.append(find_ntt_prime(b, n, avoid=primes))
    batch = draw(st.integers(min_value=1, max_value=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    info = np.iinfo(np.int64)
    x = rng.integers(info.min, info.max, size=(batch, len(primes), n), endpoint=True)
    return primes, x


class TestLimbMatrix:
    """One call transforms every row of a limb matrix modulo its prime."""

    @settings(max_examples=30, deadline=None)
    @given(limb_matrices())
    def test_matches_per_prime_transform_row_by_row(self, case):
        primes, x = case
        n = x.shape[1]
        ctx = get_ntt_context(n, primes)
        fwd, inv = ctx.forward(x), ctx.inverse(x)
        for row, q in enumerate(primes):
            one = get_ntt_context(n, q)
            assert np.array_equal(fwd[row], one.forward(x[row]))
            assert np.array_equal(inv[row], one.inverse(x[row]))
            # Independent oracle: the hardware address generator.
            hardware = execute_schedule(x[row], one._forward_twiddles, q)
            assert np.array_equal(fwd[row], hardware)

    @settings(max_examples=30, deadline=None)
    @given(limb_matrices())
    def test_inverse_undoes_forward(self, case):
        primes, x = case
        ctx = get_ntt_context(x.shape[1], primes)
        q = np.array(primes, dtype=np.int64)[:, None]
        assert np.array_equal(ctx.inverse(ctx.forward(x)), x % q)

    @settings(max_examples=20, deadline=None)
    @given(mixed_stacks())
    def test_int64_stack_matches_hardware_walk(self, case):
        primes, x = case
        n = x.shape[-1]
        ctx = get_ntt_context(n, primes)
        fwd = ctx.forward(x)
        for row, q in enumerate(primes):
            twiddles = get_ntt_context(n, q)._forward_twiddles
            for poly in range(x.shape[0]):
                hardware = execute_schedule(x[poly, row], twiddles, q)
                assert np.array_equal(fwd[poly, row], hardware)
        q = np.array(primes, dtype=np.int64)[:, None]
        assert np.array_equal(ctx.inverse(fwd), x % q)

    @settings(max_examples=30, deadline=None)
    @given(limb_matrices(), st.sampled_from(["rows", "cols", "vector"]))
    def test_wrong_shape_is_one_line_value_error(self, case, bad):
        primes, x = case
        limbs, n = x.shape
        ctx = get_ntt_context(n, primes)
        shape = {
            "rows": (limbs + 1, n),
            "cols": (limbs, n // 2),
            "vector": (n * limbs + 1,),
        }[bad]
        for transform in (ctx.forward, ctx.inverse):
            with pytest.raises(ValueError) as err:
                transform(np.zeros(shape, dtype=np.int64))
            assert "\n" not in str(err.value)


def forward_products(ctx):
    """The largest product each forward stage can form, walking the
    signed range of the entries in Python ints."""
    r = max(ctx.moduli) - 1
    low, high = 0, r
    products = []
    for twiddles, reduce in ctx._forward_stages:
        if reduce:
            low, high = 0, r
        products.append(max(-low, high) * int(twiddles.max()))
        # lo + t and lo - t, with the reduced product t in [0, r].
        low, high = low - r, high + r
    return products


def inverse_products(ctx):
    """The largest product each inverse stage, and the final N^-1
    scaling, can form, walking the signed range of the entries."""
    r = max(ctx.moduli) - 1
    low, high = 0, r
    products = []
    for twiddles, reduce in ctx._inverse_stages:
        if reduce:
            low, high = 0, r
        # The twiddled difference lies in [low - high, high - low].
        products.append((high - low) * int(twiddles.max()))
        # Sums double the range; the reduced products lie in [0, r].
        low, high = min(2 * low, 0), max(2 * high, r)
    if ctx._scale_reduce:
        low, high = 0, r
    products.append(max(-low, high) * int(ctx._degree_inv.max()))
    return products


def reductions(stages):
    """Which of a context's stages start with a full reduction."""
    return [reduce for _, reduce in stages]


class TestReductionSchedule:
    """Sums grow unreduced between stages; a full reduction runs only
    where a product could otherwise overflow int64."""

    @pytest.mark.parametrize("log_n", range(1, 11))
    def test_no_product_reaches_2_63_at_largest_prime(self, log_n):
        n = 1 << log_n
        ctx = NttContext(n, find_ntt_prime(31, n))
        assert max(ctx.moduli).bit_length() == 31
        assert max(forward_products(ctx)) < 2**63
        assert max(inverse_products(ctx)) < 2**63

    def test_stack_is_scheduled_for_its_largest_prime(self):
        n = 256
        small, large = find_ntt_prime(25, n), find_ntt_prime(31, n)
        mixed = NttContext(n, [small, large, small])
        alone = NttContext(n, large)
        assert any(reductions(alone._forward_stages))
        assert reductions(mixed._forward_stages) == reductions(alone._forward_stages)
        assert reductions(mixed._inverse_stages) == reductions(alone._inverse_stages)
        assert mixed._scale_reduce == alone._scale_reduce

    def test_small_primes_reduce_only_at_the_end(self):
        ctx = NttContext(1024, find_ntt_prime(25, 1024))
        assert not any(reductions(ctx._forward_stages))
        assert not any(reductions(ctx._inverse_stages))
        assert not ctx._scale_reduce
