"""Scale and level alignment utilities for CKKS ciphertexts.

RNS-CKKS rescaling divides by actual primes (never exactly the nominal
2^scale_bits), so ciphertexts from different circuit branches arrive at
additions with slightly different exact scales.  :class:`ScaleAligner`
restores exact agreement with the standard trick: multiply by the
constant 1.0 encoded at a scale chosen so that the following rescale
lands precisely on the target scale (costing one level on the adjusted
branch).

Used by the bootstrapping polynomial evaluator, the encrypted LR
trainer, and available to applications directly.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from .ciphertext import Ciphertext
from .encoder import CkksEncoder
from .evaluator import Evaluator


class ScaleAligner:
    """Exact scale/level alignment for ciphertext operands."""

    def __init__(self, evaluator: Evaluator, encoder: CkksEncoder):
        self.evaluator = evaluator
        self.encoder = encoder

    # ------------------------------------------------------------------
    # Core adjustment
    # ------------------------------------------------------------------

    def match(self, ct: Ciphertext, scale: float, limbs: int) -> Ciphertext:
        """Bring ``ct`` to exactly ``(scale, limbs)``.

        If the scale already matches, this only drops limbs; otherwise
        it multiplies by 1.0 at a compensating scale and rescales, which
        requires one spare limb.
        """
        ev = self.evaluator
        if math.isclose(ct.scale, scale, rel_tol=1e-9):
            return ev.mod_down_to(ct, limbs)
        if ct.level_count <= limbs:
            raise ValueError(
                "cannot adjust scale without a spare limb "
                f"(have {ct.level_count}, need > {limbs})")
        ct = ev.mod_down_to(ct, limbs + 1)
        q_drop = ct.c0.basis.primes[-1]
        plain_scale = scale * q_drop / ct.scale
        one = self.encoder.encode_constant(1.0, plain_scale, ct.c0.basis,
                                           ct.num_slots)
        ct = ev.rescale(ev.multiply_plain(ct, one))
        ct.scale = scale  # snap float rounding
        return ct

    def align_pair(self, a: Ciphertext,
                   b: Ciphertext) -> Tuple[Ciphertext, Ciphertext]:
        """Bring two ciphertexts to a common (scale, level)."""
        if math.isclose(a.scale, b.scale, rel_tol=1e-9):
            return self.evaluator.align_levels(a, b)
        if a.level_count > b.level_count:
            return self.match(a, b.scale, b.level_count), b
        if b.level_count > a.level_count:
            return a, self.match(b, a.scale, a.level_count)
        target = a.level_count - 1
        return (self.match(a, b.scale, target),
                self.evaluator.mod_down_to(b, target))

    # ------------------------------------------------------------------
    # Aligned arithmetic
    # ------------------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Addition with automatic alignment."""
        a, b = self.align_pair(a, b)
        return self.evaluator.add(a, b)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Subtraction with automatic alignment."""
        a, b = self.align_pair(a, b)
        return self.evaluator.sub(a, b)

    def add_const(self, ct: Ciphertext, value: float) -> Ciphertext:
        """Add a scalar constant (free: encoded at the current scale)."""
        pt = self.encoder.encode_constant(value, ct.scale, ct.c0.basis,
                                          ct.num_slots)
        return self.evaluator.add_plain(ct, pt)

    def mul_const(self, ct: Ciphertext, value: float,
                  target_scale: Optional[float] = None) -> Ciphertext:
        """Multiply by a scalar constant; consumes one level.

        ``target_scale`` lands the output on another branch's exact
        scale so a later addition needs no further alignment.
        """
        q_drop = ct.c0.basis.primes[-1]
        if target_scale is None:
            plain_scale = float(q_drop)
        else:
            plain_scale = target_scale * q_drop / ct.scale
        pt = self.encoder.encode_constant(value, plain_scale, ct.c0.basis,
                                          ct.num_slots)
        out = self.evaluator.rescale(self.evaluator.multiply_plain(ct, pt))
        if target_scale is not None:
            out.scale = target_scale
        return out
