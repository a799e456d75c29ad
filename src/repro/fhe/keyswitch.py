"""Hybrid key switching: Decomp, ModUp, KSKIP, ModDown (§2.1.5, §4.6).

This is the algorithmic ground truth for the FAB KeySwitch datapath
model in :mod:`repro.core.keyswitch_datapath`.  The decomposition of
the key-switch inner product mirrors the paper exactly:

1. ``Decomp``     — split the current limbs into dnum digits of alpha.
2. ``ModUp``      — extend each digit to the full raised basis Q_l * P
                    (the digit's own alpha limbs pass through unchanged,
                    the observation FAB's modified datapath exploits).
3. ``KSKIP``      — inner product with the per-digit switching key.
4. ``ModDown``    — divide by P and return to the Q_l basis.

The functional result is independent of the hardware scheduling (the
paper stresses the modified datapath "does not change the underlying
KeySwitch algorithm"), so this single implementation backs both the
original and modified datapath cost models.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .context import CkksContext
from .keys import SwitchingKey
from .modmath import modinv
from .ntt import get_ntt_context
from .poly import RnsPolynomial
from .rns import RnsBasis, get_base_converter


class KeySwitcher:
    """Executes hybrid key switching against a :class:`CkksContext`."""

    def __init__(self, context: CkksContext):
        self.context = context

    # ------------------------------------------------------------------
    # Sub-operations (exposed individually for tests and for the
    # hardware datapath model)
    # ------------------------------------------------------------------

    def decompose(self, poly: RnsPolynomial) -> List[RnsPolynomial]:
        """``Decomp``: split limbs into digits of alpha limbs each."""
        num_limbs = len(poly.basis)
        digits = self.context.digit_indices(num_limbs)
        return [poly.keep_limbs(digit) for digit in digits]

    def mod_up(self, digit_poly: RnsPolynomial,
               target: RnsBasis) -> RnsPolynomial:
        """``ModUp``: extend a digit to the raised basis (NTT domain).

        Limbs already present in the digit are copied through unchanged
        (they are identical residues); only the new limbs go through
        iNTT -> base conversion -> NTT.  The base-conversion overflow
        (a multiple of the digit modulus) provably cancels in ModDown.
        """
        ring_degree = digit_poly.ring_degree
        digit_row = {p: i for i, p in enumerate(digit_poly.basis.primes)}
        is_new = np.array([p not in digit_row for p in target.primes])
        new_primes = [p for p in target.primes if p not in digit_row]
        out = np.empty((len(target), ring_degree), dtype=np.int64)
        out[~is_new] = digit_poly.to_ntt().limbs[
            [digit_row[p] for p in target.primes if p in digit_row]]
        if new_primes:
            converter = get_base_converter(digit_poly.basis,
                                           RnsBasis(new_primes))
            converted = converter.convert(digit_poly.to_coeff().limbs)
            out[is_new] = get_ntt_context(ring_degree,
                                          new_primes).forward(converted)
        return RnsPolynomial(ring_degree, target, out, is_ntt=True)

    def inner_product(self, raised_digits: List[RnsPolynomial],
                      key: SwitchingKey,
                      target: RnsBasis) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """``KSKIP``: accumulate ``sum_j d_hat_j * (b_j, a_j)``.

        The key polynomials live over the full Q*P basis; only the limbs
        present in ``target`` participate at the current level.
        """
        full = self.context.full_basis
        key_rows = [full.primes.index(p) for p in target.primes]
        acc0 = RnsPolynomial.zeros(raised_digits[0].ring_degree, target)
        acc1 = RnsPolynomial.zeros(raised_digits[0].ring_degree, target)
        for digit, (b_j, a_j) in zip(raised_digits, key.pairs):
            b_r = b_j.keep_limbs(key_rows)
            a_r = a_j.keep_limbs(key_rows)
            acc0 = acc0 + digit * b_r
            acc1 = acc1 + digit * a_r
        return acc0, acc1

    def mod_down(self, poly: RnsPolynomial,
                 q_basis: RnsBasis) -> RnsPolynomial:
        """``ModDown``: exact floor-division by P, returning to Q_l.

        ``poly`` must span ``q_basis ++ p_basis`` in NTT form.
        """
        ctx = self.context
        num_q = len(q_basis)
        p_basis = ctx.p_basis
        expected = q_basis.primes + p_basis.primes
        if poly.basis.primes != expected:
            raise ValueError("mod_down input must span Q_l ++ P")
        p_part = poly.keep_limbs(range(num_q, num_q + len(p_basis)))
        p_coeff = p_part.to_coeff()
        converter = get_base_converter(p_basis, q_basis)
        lifted = converter.convert_exact_floor(p_coeff.limbs)
        lifted_ntt = get_ntt_context(poly.ring_degree,
                                     q_basis.primes).forward(lifted)
        q = np.array(q_basis.primes, dtype=np.int64)[:, None]
        inv_p = np.array([modinv(ctx.p_modulus % qi, qi)
                          for qi in q_basis.primes], dtype=np.int64)[:, None]
        out = (poly.limbs[:num_q] - lifted_ntt) % q * inv_p % q
        return RnsPolynomial(poly.ring_degree, q_basis, out, is_ntt=True)

    # ------------------------------------------------------------------
    # Hoisting (Halevi–Shoup; used by Bossuat et al. [5] and by FAB's
    # bootstrapping linear transforms)
    # ------------------------------------------------------------------

    def hoisted_decompose(self, poly: RnsPolynomial) -> List[RnsPolynomial]:
        """Decomp + ModUp once, for reuse across several rotations.

        When several rotations apply to the *same* ciphertext (the baby
        steps of a BSGS linear transform), the expensive raising of the
        decomposition digits is shared: the Galois automorphism commutes
        with the coefficient-wise RNS base conversion, so the raised
        digits can be permuted per rotation instead of recomputed.
        """
        if not poly.is_ntt:
            poly = poly.to_ntt()
        raised_basis = RnsBasis(poly.basis.primes
                                + self.context.p_basis.primes)
        return [self.mod_up(d, raised_basis)
                for d in self.decompose(poly)]

    def switch_hoisted(self, raised_digits: List[RnsPolynomial],
                       galois_element: int, key: SwitchingKey,
                       q_basis: RnsBasis
                       ) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Key switch one automorphism image using shared raised digits.

        ``key`` must be the switching key for ``galois_element``;
        ``q_basis`` is the (non-raised) basis of the source ciphertext.
        Returns ``(u0, u1)`` with
        ``u0 + u1*s ~= automorph(poly, g) * automorph(s, g)``.
        """
        rotated = [d.automorphism(galois_element) for d in raised_digits]
        if len(rotated) > key.dnum:
            raise ValueError("more digits than the key provides")
        raised = rotated[0].basis
        acc0, acc1 = self.inner_product(rotated, key, raised)
        u0 = self.mod_down(acc0, q_basis)
        u1 = self.mod_down(acc1, q_basis)
        return u0, u1

    # ------------------------------------------------------------------
    # Full key switch
    # ------------------------------------------------------------------

    def switch(self, poly: RnsPolynomial,
               key: SwitchingKey) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Full hybrid key switch of ``poly`` (NTT, over Q_l).

        Returns ``(u0, u1)`` over the same basis with
        ``u0 + u1 * s_to ~= poly * s_from``.
        """
        if not poly.is_ntt:
            poly = poly.to_ntt()
        q_basis = poly.basis
        raised = RnsBasis(q_basis.primes + self.context.p_basis.primes)
        digits = self.decompose(poly)
        if len(digits) > key.dnum:
            raise ValueError(
                f"ciphertext has {len(digits)} digits but key has {key.dnum}")
        raised_digits = [self.mod_up(d, raised) for d in digits]
        acc0, acc1 = self.inner_product(raised_digits, key, raised)
        u0 = self.mod_down(acc0, q_basis)
        u1 = self.mod_down(acc1, q_basis)
        return u0, u1
