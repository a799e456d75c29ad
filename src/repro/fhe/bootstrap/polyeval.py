"""Homomorphic Chebyshev polynomial evaluation (Paterson–Stockmeyer).

The polynomial-evaluation step of bootstrapping (EvalMod) approximates
the modular-reduction function with a scaled sine, following Bossuat et
al. [5] as adopted by the paper (§2.1.3, multiplicative depth 9 at the
paper's parameters).  The approximation is expressed in the Chebyshev
basis and evaluated with a baby-step/giant-step recursion:

  * baby steps  ``T_1 .. T_{m-1}`` via ``T_{a+b} = 2 T_a T_b - T_{|a-b|}``
  * giant steps ``T_{m 2^k}``     via ``T_{2g} = 2 T_g^2 - 1``
  * the recursion ``p = q * T_g + r`` using Chebyshev division.

Scale management uses the exact-prime trick: plaintext constants are
encoded at scales chosen so that every rescale lands on the reference
scale exactly, avoiding scale-mismatch noise.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from ..align import ScaleAligner
from ..ciphertext import Ciphertext
from ..encoder import CkksEncoder
from ..evaluator import Evaluator

#: Coefficients below this magnitude are treated as zero.
COEFF_TOLERANCE = 1e-13


def chebyshev_fit(func: Callable[[np.ndarray], np.ndarray],
                  degree: int) -> np.ndarray:
    """Chebyshev-interpolate ``func`` on [-1, 1] at ``degree + 1`` nodes."""
    return np.polynomial.chebyshev.chebinterpolate(func, degree)


def chebyshev_divide(coeffs: np.ndarray, divisor_degree: int):
    """Divide a Chebyshev-basis polynomial by ``T_g``.

    Returns ``(quotient, remainder)`` with
    ``p = quotient * T_g + remainder`` and both of degree < g, using
    ``T_j = 2 T_g T_{j-g} - T_{2g-j}`` for ``g <= j <= 2g``.
    Requires ``deg(p) < 2g``.
    """
    g = divisor_degree
    degree = len(coeffs) - 1
    if degree >= 2 * g:
        raise ValueError(f"degree {degree} too large for divisor T_{g}")
    quotient = np.zeros(max(degree - g + 1, 1), dtype=np.float64)
    remainder = np.array(coeffs[:g], dtype=np.float64).copy()
    remainder = np.resize(remainder, g)
    if degree < g:
        return np.zeros(1), np.array(coeffs, dtype=np.float64)
    for j in range(g, degree + 1):
        c = coeffs[j]
        if j == g:
            quotient[0] += c
        else:
            quotient[j - g] += 2.0 * c
            remainder[2 * g - j] -= c
    return quotient, remainder


def chebyshev_reference_eval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Plain (non-homomorphic) evaluation, for tests."""
    return np.polynomial.chebyshev.chebval(x, coeffs)


class ChebyshevEvaluator:
    """Evaluates Chebyshev-basis polynomials on a ciphertext.

    The input ciphertext must encrypt values already normalized to the
    Chebyshev domain [-1, 1].
    """

    def __init__(self, evaluator: Evaluator, encoder: CkksEncoder):
        self.evaluator = evaluator
        self.encoder = encoder
        self._aligner = ScaleAligner(evaluator, encoder)

    # ------------------------------------------------------------------
    # Scale / level alignment helpers (delegated to ScaleAligner)
    # ------------------------------------------------------------------

    def _match(self, ct: Ciphertext, scale: float, limbs: int) -> Ciphertext:
        """Bring ``ct`` to exactly (``scale``, ``limbs``)."""
        return self._aligner.match(ct, scale, limbs)

    def _align_pair(self, a: Ciphertext, b: Ciphertext):
        """Bring two ciphertexts to a common (scale, level)."""
        return self._aligner.align_pair(a, b)

    def add_aligned(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Addition with automatic scale/level alignment."""
        return self._aligner.add(a, b)

    def sub_aligned(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Subtraction with automatic scale/level alignment."""
        return self._aligner.sub(a, b)

    def add_const(self, ct: Ciphertext, value: float) -> Ciphertext:
        """Add a scalar constant (encoded at the ciphertext's scale)."""
        return self._aligner.add_const(ct, value)

    def mul_const(self, ct: Ciphertext, value: float,
                  target_scale: Optional[float] = None) -> Ciphertext:
        """Multiply by a scalar constant; consumes one level."""
        return self._aligner.mul_const(ct, value, target_scale)

    # ------------------------------------------------------------------
    # Chebyshev power ladder
    # ------------------------------------------------------------------

    def _cheb_step(self, t_a: Ciphertext, t_b: Ciphertext,
                   t_sub: Optional[Ciphertext]) -> Ciphertext:
        """``T_{a+b} = 2 T_a T_b - T_{|a-b|}`` (t_sub None means a == b,
        where the subtrahend is the constant 1)."""
        ev = self.evaluator
        prod = ev.multiply(t_a, t_b)
        prod = ev.rescale(prod)
        prod = ev.multiply_scalar_int(prod, 2)
        if t_sub is None:
            return self.add_const(prod, -1.0)
        return self.sub_aligned(prod, t_sub)

    def compute_powers(self, ct: Ciphertext, baby_count: int,
                       giant_levels: int) -> Dict[int, Ciphertext]:
        """Compute ``T_j`` for j < baby_count and ``T_{baby_count * 2^k}``.

        ``ct`` is ``T_1``.  Returns a dict keyed by Chebyshev index.
        """
        powers: Dict[int, Ciphertext] = {1: ct}
        for j in range(2, baby_count):
            a = j // 2
            b = j - a
            t_sub = None if a == b else powers[abs(a - b)]
            powers[j] = self._cheb_step(powers[a], powers[b], t_sub)
        g = baby_count
        if g > 1:
            half = g // 2
            if half not in powers:
                raise ValueError("baby_count must be a power of two")
            powers[g] = self._cheb_step(powers[half], powers[half], None)
            for _ in range(giant_levels):
                powers[2 * g] = self._cheb_step(powers[g], powers[g], None)
                g *= 2
        return powers

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, ct: Ciphertext, coeffs: np.ndarray,
                 baby_count: Optional[int] = None) -> Ciphertext:
        """Evaluate ``sum_j coeffs[j] T_j(x)`` on ``ct`` (x in [-1, 1])."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        degree = len(coeffs) - 1
        while degree > 0 and abs(coeffs[degree]) < COEFF_TOLERANCE:
            degree -= 1
        coeffs = coeffs[:degree + 1]
        if degree == 0:
            zero = self.evaluator.multiply_scalar_int(ct, 0)
            return self.add_const(zero, float(coeffs[0]))
        if baby_count is None:
            baby_count = 1 << max(1, math.ceil(math.log2(degree + 1) / 2))
        giant_levels = 0
        reach = baby_count
        while reach <= degree:
            reach *= 2
            giant_levels += 1
        giant_levels = max(giant_levels - 1, 0)
        powers = self.compute_powers(ct, baby_count, giant_levels)
        # Normalize the babies to a common (scale, level) so linear
        # combinations stay exact.
        baby_idx = [j for j in range(1, baby_count)] or [1]
        min_limbs = min(powers[j].level_count for j in baby_idx)
        ref_scale = next(powers[j].scale for j in baby_idx
                         if powers[j].level_count == min_limbs)
        if not all(math.isclose(powers[j].scale, ref_scale, rel_tol=1e-9)
                   for j in baby_idx):
            # Babies at the same level can carry different exact scales
            # (different rescale histories); burn one level to re-align.
            min_limbs -= 1
        for j in baby_idx:
            powers[j] = self._match(powers[j], ref_scale, min_limbs)
        return self._eval_recursive(coeffs, powers, baby_count)

    def _eval_recursive(self, coeffs: np.ndarray,
                        powers: Dict[int, Ciphertext],
                        baby_count: int) -> Ciphertext:
        degree = len(coeffs) - 1
        while degree > 0 and abs(coeffs[degree]) < COEFF_TOLERANCE:
            degree -= 1
        coeffs = coeffs[:degree + 1]
        if degree < baby_count:
            return self._eval_linear(coeffs, powers, baby_count)
        g = baby_count
        while 2 * g <= degree:
            g *= 2
        quotient, remainder = chebyshev_divide(coeffs, g)
        q_ct = self._eval_recursive(quotient, powers, baby_count)
        prod = self.evaluator.multiply(*self._align_for_product(
            q_ct, powers[g]))
        prod = self.evaluator.rescale(prod)
        r_ct = self._eval_recursive(remainder, powers, baby_count)
        return self.add_aligned(prod, r_ct)

    def _align_for_product(self, a: Ciphertext, b: Ciphertext):
        """Align levels (scales need not match for products)."""
        return self.evaluator.align_levels(a, b)

    def _eval_linear(self, coeffs: np.ndarray,
                     powers: Dict[int, Ciphertext],
                     baby_count: int) -> Ciphertext:
        """Base case: ``c_0 + sum_{1<=j<m} c_j T_j`` via plain multiplies."""
        ref = powers[1]
        basis = ref.c0.basis
        q_drop = basis.primes[-1]
        total: Optional[Ciphertext] = None
        for j in range(1, min(len(coeffs), baby_count)):
            c = float(coeffs[j])
            if abs(c) < COEFF_TOLERANCE and j != 1:
                continue
            t_j = powers[j]
            pt = self.encoder.encode_constant(c, float(q_drop), t_j.c0.basis,
                                              t_j.num_slots)
            term = self.evaluator.multiply_plain(t_j, pt)
            total = term if total is None else self.evaluator.add(total, term)
        if total is None:
            total = self.evaluator.multiply_scalar_int(
                self.evaluator.multiply_plain(
                    ref, self.encoder.encode_constant(
                        1.0, float(q_drop), basis, ref.num_slots)), 0)
        if len(coeffs) > 0 and abs(coeffs[0]) > COEFF_TOLERANCE:
            pt0 = self.encoder.encode_constant(
                float(coeffs[0]), total.scale, total.c0.basis,
                total.num_slots)
            total = self.evaluator.add_plain(total, pt0)
        return self.evaluator.rescale(total)
