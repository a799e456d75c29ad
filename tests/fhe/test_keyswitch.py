"""Unit tests for the hybrid key-switching subroutines.

These validate the algorithmic ground truth behind FAB's KeySwitch
datapath: Decomp digit layout, ModUp passthrough/extension, the KSKIP
inner product, and ModDown's exact division by P.
"""

import numpy as np
import pytest

from repro.fhe import CkksContext, CkksParams, KeyGenerator, KeySwitcher
from repro.fhe.rns import RnsBasis


@pytest.fixture(scope="module")
def setup():
    ctx = CkksContext(CkksParams(ring_degree=64, num_limbs=6, scale_bits=24,
                                 dnum=3, hamming_weight=8, seed=91))
    keygen = KeyGenerator(ctx)
    secret = keygen.gen_secret_key()
    switcher = KeySwitcher(ctx)
    return ctx, keygen, secret, switcher


class TestDecompose:
    def test_full_level_digits(self, setup):
        ctx, _, _, switcher = setup
        poly = ctx.sample_uniform(ctx.q_basis)
        digits = switcher.decompose(poly)
        assert len(digits) == 3
        assert [len(d.basis) for d in digits] == [2, 2, 2]

    def test_partial_level_digits(self, setup):
        ctx, _, _, switcher = setup
        poly = ctx.sample_uniform(ctx.basis_at_level(3))
        digits = switcher.decompose(poly)
        assert len(digits) == 2
        assert [len(d.basis) for d in digits] == [2, 1]

    def test_digit_limbs_match_source(self, setup):
        ctx, _, _, switcher = setup
        poly = ctx.sample_uniform(ctx.q_basis)
        digits = switcher.decompose(poly)
        assert np.array_equal(digits[1].limbs, poly.limbs[2:4])


class TestModUp:
    def test_passthrough_limbs_unchanged(self, setup):
        """The paper's key observation: alpha limbs pass through ModUp
        unchanged, enabling the modified (greedy) KSKIP datapath."""
        ctx, _, _, switcher = setup
        poly = ctx.sample_uniform(ctx.q_basis)
        digit = switcher.decompose(poly)[0]
        target = RnsBasis(ctx.q_basis.primes + ctx.p_basis.primes)
        (raised,) = switcher.mod_up([digit], target)
        assert np.array_equal(raised.limbs[0], poly.limbs[0])
        assert np.array_equal(raised.limbs[1], poly.limbs[1])

    def test_extension_congruence(self, setup):
        """New limbs must be congruent to the digit value + u * D."""
        ctx, _, _, switcher = setup
        poly = ctx.sample_uniform(ctx.q_basis).to_coeff()
        digit = switcher.decompose(poly)[0]
        target = RnsBasis(ctx.q_basis.primes + ctx.p_basis.primes)
        (raised,) = switcher.mod_up([digit], target)
        raised = raised.to_coeff()
        digit_primes = digit.basis.primes
        d_mod = digit.basis.modulus
        # Reconstruct the digit value at a few coefficients.
        from repro.fhe.modmath import crt_reconstruct
        for col in (0, 7, 33):
            x = crt_reconstruct([int(digit.to_coeff().limbs[i, col])
                                 for i in range(len(digit_primes))],
                                list(digit_primes))
            p = target.primes[-1]
            row = len(target) - 1
            diff = (int(raised.limbs[row, col]) - x) % p
            assert diff % (d_mod % p) == 0 or diff in {
                (u * d_mod) % p for u in range(len(digit_primes) + 1)}


class TestModDown:
    def test_exact_division_of_p_multiple(self, setup):
        """ModDown(P * x) must equal x exactly."""
        ctx, _, _, switcher = setup
        q_basis = ctx.q_basis
        raised = RnsBasis(q_basis.primes + ctx.p_basis.primes)
        x = ctx.sample_uniform(RnsBasis(raised.primes)).to_coeff()
        # Build P*x over the raised basis: multiply limb-wise by P mod prime.
        p_mod = ctx.p_modulus
        px = x.scalar_multiply([p_mod % p for p in raised.primes]).to_ntt()
        (down,) = switcher.mod_down([px], q_basis)
        expected = x.to_ntt().keep_limbs(range(len(q_basis)))
        assert down == expected

    def test_rounding_error_bounded(self, setup):
        """For arbitrary y, ModDown(y) = floor-ish(y/P) with error <= 1."""
        ctx, _, _, switcher = setup
        q_basis = ctx.q_basis
        raised = RnsBasis(q_basis.primes + ctx.p_basis.primes)
        small = [3, -7, 100] + [0] * 61
        from repro.fhe.poly import RnsPolynomial
        y = RnsPolynomial.from_int_coeffs(small, 64, raised).to_ntt()
        (down,) = switcher.mod_down([y], q_basis)
        # y/P rounds to zero; allow |result| <= 1.
        coeffs = down.keep_limbs(range(len(q_basis))).integer_coefficients()
        assert max(abs(c) for c in coeffs) <= 1

    def test_basis_validation(self, setup):
        ctx, _, _, switcher = setup
        poly = ctx.sample_uniform(ctx.q_basis)
        with pytest.raises(ValueError):
            switcher.mod_down([poly], ctx.q_basis)


class TestFullSwitch:
    def test_switch_identity(self, setup):
        """u0 + u1*s must approximate d*s_from."""
        ctx, keygen, secret, switcher = setup
        s_sq = secret.poly * secret.poly
        key = keygen.gen_switching_key(s_sq, secret, "s^2")
        d = ctx.sample_uniform(ctx.q_basis)
        u0, u1 = switcher.switch(d, key)
        s_q = secret.restricted(ctx.q_basis)
        num_q = len(ctx.q_basis)
        s_sq_q = s_sq.keep_limbs(range(num_q))
        lhs = u0 + u1 * s_q
        rhs = d * s_sq_q
        residual = (lhs - rhs).integer_coefficients()
        # Noise ~ dnum * N * e / (P/D) + ModDown rounding: generous bound.
        assert max(abs(c) for c in residual) < 2**16

    def test_switch_at_lower_level(self, setup):
        """Keys generated at the top level stay valid after rescaling."""
        ctx, keygen, secret, switcher = setup
        s_sq = secret.poly * secret.poly
        key = keygen.gen_switching_key(s_sq, secret, "s^2")
        low_basis = ctx.basis_at_level(3)
        d = ctx.sample_uniform(low_basis)
        u0, u1 = switcher.switch(d, key)
        assert u0.basis == low_basis
        s_q = secret.restricted(low_basis)
        indices = [ctx.full_basis.primes.index(q) for q in low_basis.primes]
        s_sq_q = s_sq.keep_limbs(indices)
        residual = ((u0 + u1 * s_q) - d * s_sq_q).integer_coefficients()
        assert max(abs(c) for c in residual) < 2**16
