"""Hybrid key switching: Decomp, ModUp, KSKIP, ModDown (§2.1.5, §4.6).

This is the algorithmic ground truth for the FAB KeySwitch datapath
model in :mod:`repro.core.keyswitch_datapath`.  The decomposition of
the key-switch inner product mirrors the paper exactly:

1. ``Decomp``     — split the current limbs into dnum digits of alpha.
2. ``ModUp``      — extend every digit to the full raised basis Q_l * P
                    (each digit's own alpha limbs pass through unchanged,
                    the observation FAB's modified datapath exploits).
                    All digits share one inverse NTT over the input's
                    limbs and one forward NTT over every new limb.
3. ``KSKIP``      — inner product with the per-digit switching key.
4. ``ModDown``    — divide by P and return to the Q_l basis; the two
                    accumulators share one inverse and one forward NTT.

Like FAB's datapath, which streams every limb through a few functional
units, each phase is one pass over its limbs rather than one call per
digit or per polynomial.

The functional result is independent of the hardware scheduling (the
paper stresses the modified datapath "does not change the underlying
KeySwitch algorithm"), so this single implementation backs both the
original and modified datapath cost models.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

import numpy as np

from .context import CkksContext
from .keys import SwitchingKey
from .ntt import get_ntt_context
from .poly import RnsPolynomial
from .rns import RnsBasis, get_base_converter, inverse_column


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

    def mod_up(self, digits: Sequence[RnsPolynomial],
               target: RnsBasis) -> List[RnsPolynomial]:
        """``ModUp``: extend every digit to the raised basis (NTT domain).

        Limbs already present in a digit are copied through unchanged
        (they are identical residues); only the new limbs go through
        iNTT -> base conversion -> NTT.  The digits' limbs, stacked, cross
        one inverse NTT; each digit converts to its own new limbs; and
        the new limbs of all digits, stacked over their repeated primes,
        cross one forward NTT.  The base-conversion overflow (a multiple
        of the digit modulus) provably cancels in ModDown.  The digits,
        as :meth:`decompose` returns them, share one representation.
        """
        n = digits[0].ring_degree
        stacked = RnsPolynomial(
            n, RnsBasis([p for d in digits for p in d.basis.primes]),
            np.concatenate([d.limbs for d in digits]), digits[0].is_ntt)
        coeff = stacked.to_coeff().limbs
        # Each raised digit gathers its rows from [stacked NTT limbs ++
        # new limbs]; the new limbs follow in digit, then target order.
        gather = np.empty((len(digits), len(target)), dtype=np.int64)
        new_rows = itertools.count(len(stacked.basis))
        converted, new_primes = [], []
        start = 0
        for j, digit in enumerate(digits):
            own = {p: start + i for i, p in enumerate(digit.basis.primes)}
            new = [p for p in target.primes if p not in own]
            converter = get_base_converter(digit.basis, RnsBasis(new))
            converted.append(
                converter.convert(coeff[start:start + len(own)]))
            gather[j] = [own[p] if p in own else next(new_rows)
                         for p in target.primes]
            new_primes += new
            start += len(own)
        new_limbs = get_ntt_context(n, new_primes).forward(
            np.concatenate(converted))
        raised = np.concatenate([stacked.to_ntt().limbs, new_limbs])[gather]
        return [RnsPolynomial(n, target, limbs, is_ntt=True)
                for limbs in raised]

    def inner_product(self, raised_digits: List[RnsPolynomial],
                      key: SwitchingKey,
                      target: RnsBasis) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """``KSKIP``: accumulate ``sum_j d_hat_j * (b_j, a_j)``.

        The key polynomials live over the full Q*P basis; only the limbs
        present in ``target`` participate at the current level.  All
        digits and both key halves multiply in one pass, and the sum
        over digits reduces once (each term is below 2^31).
        """
        full = self.context.full_basis
        key_rows = [full.primes.index(p) for p in target.primes]
        pairs = list(zip(raised_digits, key.pairs))
        digits = np.stack([digit.limbs for digit, _ in pairs])
        keys = np.stack([(b_j.limbs[key_rows], a_j.limbs[key_rows])
                         for _, (b_j, a_j) in pairs])
        q = target.column
        acc = (digits[:, None] * keys % q).sum(axis=0) % q
        n = raised_digits[0].ring_degree
        return (RnsPolynomial(n, target, acc[0], is_ntt=True),
                RnsPolynomial(n, target, acc[1], is_ntt=True))

    def mod_down(self, polys: Sequence[RnsPolynomial],
                 q_basis: RnsBasis) -> List[RnsPolynomial]:
        """``ModDown``: exact floor-division by P, returning to Q_l.

        Every polynomial must span ``q_basis ++ p_basis`` in NTT form.
        Their P limbs cross one inverse NTT together, and the lifts to
        Q_l one forward NTT.
        """
        ctx = self.context
        num_q = len(q_basis)
        p_basis = ctx.p_basis
        expected = q_basis.primes + p_basis.primes
        if any(poly.basis.primes != expected for poly in polys):
            raise ValueError("mod_down input must span Q_l ++ P")
        n = polys[0].ring_degree
        limbs = np.stack([poly.limbs for poly in polys])
        p_coeff = get_ntt_context(n, p_basis.primes).inverse(limbs[:, num_q:])
        lifted = get_base_converter(p_basis, q_basis).convert_exact_floor(
            p_coeff)
        lifted = get_ntt_context(n, q_basis.primes).forward(lifted)
        q = q_basis.column
        out = ((limbs[:, :num_q] - lifted) % q
               * inverse_column(q_basis, ctx.p_modulus) % q)
        return [RnsPolynomial(n, q_basis, rows, is_ntt=True) for rows in out]

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
        return self.mod_up(self.decompose(poly), raised_basis)

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
        u0, u1 = self.mod_down((acc0, acc1), q_basis)
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
        raised_digits = self.mod_up(digits, raised)
        acc0, acc1 = self.inner_product(raised_digits, key, raised)
        u0, u1 = self.mod_down((acc0, acc1), q_basis)
        return u0, u1
