"""CKKS homomorphic operations: the public evaluation API.

Implements the operation set of §2.1 of the paper — Add, Mult (with
relinearization), Rescale, Rotate, Conjugate — plus plaintext variants
and level management, all on top of the hybrid :class:`KeySwitcher`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from .ciphertext import Ciphertext
from .context import CkksContext
from .encoder import CkksEncoder, Plaintext
from .keys import (GaloisKeySet, KeyGenerator, PublicKey, SecretKey,
                   SwitchingKey, conjugation_element,
                   galois_element_for_rotation)
from .keyswitch import KeySwitcher
from .ntt import get_ntt_context
from .poly import RnsPolynomial
from .rns import RnsBasis, inverse_column

#: Relative tolerance when matching scales of operands.
SCALE_RTOL = 1e-6


class Encryptor:
    """Public-key (and symmetric) encryption."""

    def __init__(self, context: CkksContext, public_key: PublicKey):
        self.context = context
        self.public_key = public_key

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Public-key encryption of an encoded plaintext."""
        ctx = self.context
        basis = plaintext.poly.basis
        pk_b = self._restrict(self.public_key.b, basis)
        pk_a = self._restrict(self.public_key.a, basis)
        v = ctx.poly_from_small_coeffs(ctx.sample_zo_coeffs(), basis)
        e0 = ctx.poly_from_small_coeffs(ctx.sample_error_coeffs(), basis)
        e1 = ctx.poly_from_small_coeffs(ctx.sample_error_coeffs(), basis)
        c0 = pk_b * v + e0 + plaintext.poly
        c1 = pk_a * v + e1
        return Ciphertext(c0, c1, plaintext.scale, plaintext.num_slots)

    @staticmethod
    def _restrict(poly: RnsPolynomial, basis) -> RnsPolynomial:
        if poly.basis == basis:
            return poly
        indices = [poly.basis.primes.index(q) for q in basis.primes]
        return poly.keep_limbs(indices)


class Decryptor:
    """Secret-key decryption."""

    def __init__(self, context: CkksContext, secret_key: SecretKey):
        self.context = context
        self.secret_key = secret_key

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        """Decrypt to an encoded plaintext (``c0 + c1 * s``)."""
        s = self.secret_key.restricted(ciphertext.c0.basis)
        poly = ciphertext.c0 + ciphertext.c1 * s
        return Plaintext(poly, ciphertext.scale, ciphertext.num_slots)


class Evaluator:
    """Homomorphic operations over CKKS ciphertexts."""

    def __init__(self, context: CkksContext,
                 relin_key: Optional[SwitchingKey] = None,
                 galois_keys: Optional[GaloisKeySet] = None):
        self.context = context
        self.relin_key = relin_key
        self.galois_keys = galois_keys
        self.key_switcher = KeySwitcher(context)

    # ------------------------------------------------------------------
    # Level / scale management
    # ------------------------------------------------------------------

    def mod_down_to(self, ct: Ciphertext, num_limbs: int) -> Ciphertext:
        """Drop limbs until the ciphertext has ``num_limbs`` limbs."""
        if num_limbs > ct.level_count:
            raise ValueError("cannot raise level by dropping limbs")
        if num_limbs == ct.level_count:
            return ct
        drop = ct.level_count - num_limbs
        return Ciphertext(ct.c0.drop_last_limbs(drop),
                          ct.c1.drop_last_limbs(drop), ct.scale, ct.num_slots)

    def align_levels(self, a: Ciphertext, b: Ciphertext):
        """Return the pair mod-switched to the lower of the two levels."""
        target = min(a.level_count, b.level_count)
        return self.mod_down_to(a, target), self.mod_down_to(b, target)

    def _check_scales(self, s1: float, s2: float, op: str) -> None:
        if not math.isclose(s1, s2, rel_tol=SCALE_RTOL):
            raise ValueError(
                f"{op}: scale mismatch (2^{math.log2(s1):.3f} vs "
                f"2^{math.log2(s2):.3f}); rescale or re-encode first")

    # ------------------------------------------------------------------
    # Addition family
    # ------------------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic addition (component-wise over slots)."""
        a, b = self.align_levels(a, b)
        self._check_scales(a.scale, b.scale, "add")
        return Ciphertext(a.c0 + b.c0, a.c1 + b.c1, a.scale,
                          min(a.num_slots, b.num_slots))

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic subtraction."""
        a, b = self.align_levels(a, b)
        self._check_scales(a.scale, b.scale, "sub")
        return Ciphertext(a.c0 - b.c0, a.c1 - b.c1, a.scale,
                          min(a.num_slots, b.num_slots))

    def negate(self, a: Ciphertext) -> Ciphertext:
        """Homomorphic negation."""
        return Ciphertext(-a.c0, -a.c1, a.scale, a.num_slots)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Add an encoded plaintext (scales must match)."""
        self._check_scales(ct.scale, pt.scale, "add_plain")
        poly = Encryptor._restrict(pt.poly, ct.c0.basis)
        return Ciphertext(ct.c0 + poly, ct.c1, ct.scale, ct.num_slots)

    def sub_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Subtract an encoded plaintext."""
        self._check_scales(ct.scale, pt.scale, "sub_plain")
        poly = Encryptor._restrict(pt.poly, ct.c0.basis)
        return Ciphertext(ct.c0 - poly, ct.c1, ct.scale, ct.num_slots)

    # ------------------------------------------------------------------
    # Multiplication family
    # ------------------------------------------------------------------

    def multiply(self, a: Ciphertext, b: Ciphertext,
                 relin_key: Optional[SwitchingKey] = None) -> Ciphertext:
        """Homomorphic multiplication with relinearization.

        The result has scale ``scale_a * scale_b``; call :meth:`rescale`
        to bring it back down (consuming one limb/level).
        """
        key = relin_key or self.relin_key
        if key is None:
            raise ValueError("multiply requires a relinearization key")
        a, b = self.align_levels(a, b)
        d0 = a.c0 * b.c0
        d1 = a.c0 * b.c1 + a.c1 * b.c0
        d2 = a.c1 * b.c1
        u0, u1 = self.key_switcher.switch(d2, key)
        return Ciphertext(d0 + u0, d1 + u1, a.scale * b.scale,
                          min(a.num_slots, b.num_slots))

    def square(self, a: Ciphertext,
               relin_key: Optional[SwitchingKey] = None) -> Ciphertext:
        """Homomorphic squaring (one fewer tensor product than multiply)."""
        key = relin_key or self.relin_key
        if key is None:
            raise ValueError("square requires a relinearization key")
        d0 = a.c0 * a.c0
        cross = a.c0 * a.c1
        d1 = cross + cross
        d2 = a.c1 * a.c1
        u0, u1 = self.key_switcher.switch(d2, key)
        return Ciphertext(d0 + u0, d1 + u1, a.scale * a.scale, a.num_slots)

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Multiply by an encoded plaintext (no key switch needed)."""
        poly = Encryptor._restrict(pt.poly, ct.c0.basis).to_ntt()
        return Ciphertext(ct.c0 * poly, ct.c1 * poly, ct.scale * pt.scale,
                          ct.num_slots)

    def multiply_scalar_int(self, ct: Ciphertext, scalar: int) -> Ciphertext:
        """Multiply by an exact integer (scale unchanged)."""
        return Ciphertext(ct.c0.scalar_multiply(scalar),
                          ct.c1.scalar_multiply(scalar), ct.scale,
                          ct.num_slots)

    def multiply_by_monomial(self, ct: Ciphertext, exponent: int) -> Ciphertext:
        """Multiply by ``x^exponent`` (exact: no noise or scale change).

        Multiplying the plaintext polynomial by ``x^{N/2}`` multiplies
        every slot by ``i`` (since ``zeta^{5^j * N/2} = i`` for all j),
        so ``exponent = p * N/2`` implements exact multiplication of the
        slots by ``i^p`` — used by the bootstrapping pipeline to combine
        the real and imaginary coefficient halves.
        """
        n = ct.ring_degree
        e = exponent % (2 * n)
        if e == 0:
            return ct.copy()
        coeffs = np.zeros(n, dtype=np.int64)
        if e < n:
            coeffs[e] = 1
        else:
            coeffs[e - n] = -1
        mono = self.context.poly_from_small_coeffs(coeffs, ct.c0.basis)
        return Ciphertext(ct.c0 * mono, ct.c1 * mono, ct.scale, ct.num_slots)

    def multiply_by_i(self, ct: Ciphertext, power: int = 1) -> Ciphertext:
        """Multiply every slot by ``i**power`` exactly."""
        return self.multiply_by_monomial(ct, (power % 4) * (ct.ring_degree // 2))

    # ------------------------------------------------------------------
    # Rescale
    # ------------------------------------------------------------------

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the last limb prime and drop it (one level consumed).

        ``c0`` and ``c1`` share one inverse NTT of their last limbs and
        one forward NTT of the lifted remainders.
        """
        if ct.level_count <= 1:
            raise ValueError("cannot rescale a one-limb ciphertext")
        basis = ct.c0.basis
        q_last = basis.primes[-1]
        remaining = RnsBasis(basis.primes[:-1])
        n = ct.ring_degree
        limbs = np.stack([ct.c0.limbs, ct.c1.limbs])
        last = get_ntt_context(n, q_last).inverse(limbs[:, -1:])
        # Centered lift of the dropped limb for minimal rounding noise.
        centered = np.where(last >= (q_last + 1) // 2, last - q_last, last)
        lifted = get_ntt_context(n, remaining.primes).forward(
            np.broadcast_to(centered, (2, len(remaining), n)))
        q = remaining.column
        out = ((limbs[:, :-1] - lifted) % q
               * inverse_column(remaining, q_last) % q)
        c0, c1 = (RnsPolynomial(n, remaining, rows, is_ntt=True)
                  for rows in out)
        return Ciphertext(c0, c1, ct.scale / q_last, ct.num_slots)

    def rescale_to_scale(self, ct: Ciphertext, target: float) -> Ciphertext:
        """Rescale repeatedly until the scale is within 2x of ``target``."""
        while ct.scale > 2 * target and ct.level_count > 1:
            ct = self.rescale(ct)
        return ct

    # ------------------------------------------------------------------
    # Rotation family
    # ------------------------------------------------------------------

    def rotate(self, ct: Ciphertext, steps: int,
               galois_keys: Optional[GaloisKeySet] = None) -> Ciphertext:
        """Rotate the slot vector left by ``steps`` (negative = right)."""
        steps_mod = steps % (ct.ring_degree // 2)
        if steps_mod == 0:
            return ct.copy()
        g = galois_element_for_rotation(ct.ring_degree, steps_mod)
        return self.apply_galois(ct, g, galois_keys)

    def conjugate(self, ct: Ciphertext,
                  galois_keys: Optional[GaloisKeySet] = None) -> Ciphertext:
        """Complex-conjugate every slot."""
        g = conjugation_element(ct.ring_degree)
        return self.apply_galois(ct, g, galois_keys)

    def apply_galois(self, ct: Ciphertext, galois_element: int,
                     galois_keys: Optional[GaloisKeySet] = None) -> Ciphertext:
        """Apply ``x -> x^g`` and switch back to the original key."""
        keys = galois_keys or self.galois_keys
        if keys is None:
            raise ValueError("rotation requires Galois keys")
        key = keys[galois_element]
        c0_g = ct.c0.automorphism(galois_element)
        c1_g = ct.c1.automorphism(galois_element)
        u0, u1 = self.key_switcher.switch(c1_g, key)
        return Ciphertext(c0_g + u0, u1, ct.scale, ct.num_slots)

    def rotate_hoisted(self, ct: Ciphertext, steps: Sequence[int],
                       galois_keys: Optional[GaloisKeySet] = None
                       ) -> Dict[int, Ciphertext]:
        """Rotate one ciphertext by several step counts, sharing ModUp.

        The Halevi–Shoup hoisting optimization: Decomp/ModUp of ``c1``
        runs once and each rotation pays only automorphism + KSKIP +
        ModDown.  Functionally identical to calling :meth:`rotate` per
        step (the test suite asserts this); used by the bootstrapping
        linear transforms, where it is the dominant saving.

        Returns a dict mapping each step to its rotated ciphertext
        (step 0, if present, maps to a copy).
        """
        keys = galois_keys or self.galois_keys
        if keys is None:
            raise ValueError("rotation requires Galois keys")
        results: Dict[int, Ciphertext] = {}
        todo = []
        n = ct.ring_degree
        for step in steps:
            step_mod = step % (n // 2)
            if step_mod == 0:
                results[step] = ct.copy()
            else:
                todo.append((step, step_mod))
        if not todo:
            return results
        raised = self.key_switcher.hoisted_decompose(ct.c1)
        q_basis = ct.c0.basis
        for step, step_mod in todo:
            g = galois_element_for_rotation(n, step_mod)
            key = keys[g]
            u0, u1 = self.key_switcher.switch_hoisted(raised, g, key,
                                                      q_basis)
            c0_g = ct.c0.automorphism(g)
            results[step] = Ciphertext(c0_g + u0, u1, ct.scale,
                                       ct.num_slots)
        return results


class CkksScheme:
    """Convenience facade bundling the full scheme for one context.

    Example:
        >>> scheme = CkksScheme(CkksParams(ring_degree=64, num_limbs=4,
        ...                                scale_bits=26))
        >>> ct = scheme.encrypt([1.0, 2.0, 3.0])
        >>> ct2 = scheme.evaluator.multiply(ct, ct)
        >>> values = scheme.decrypt(scheme.evaluator.rescale(ct2))
    """

    def __init__(self, params, rotations: Optional[Sequence[int]] = None):
        from .context import CkksParams
        if not isinstance(params, CkksParams):
            raise TypeError("params must be CkksParams")
        self.params = params
        self.context = CkksContext(params)
        self.encoder = CkksEncoder(self.context)
        keygen = KeyGenerator(self.context)
        self.secret_key = keygen.gen_secret_key()
        self.public_key = keygen.gen_public_key(self.secret_key)
        self.relin_key = keygen.gen_relin_key(self.secret_key)
        self.galois_keys = keygen.gen_galois_keys(
            self.secret_key, list(rotations or []), include_conjugate=True)
        self._keygen = keygen
        self.encryptor = Encryptor(self.context, self.public_key)
        self.decryptor = Decryptor(self.context, self.secret_key)
        self.evaluator = Evaluator(self.context, self.relin_key,
                                   self.galois_keys)

    def add_rotation_keys(self, rotations: Sequence[int]) -> None:
        """Generate additional rotation keys on demand."""
        n = self.params.ring_degree
        for k in rotations:
            g = galois_element_for_rotation(n, k)
            if g not in self.galois_keys:
                self.galois_keys.keys[g] = self._keygen.gen_galois_key(
                    self.secret_key, g)

    def encrypt(self, values, scale: Optional[float] = None,
                num_slots: Optional[int] = None) -> Ciphertext:
        """Encode and encrypt a vector of complex/real values."""
        pt = self.encoder.encode(values, scale=scale, num_slots=num_slots)
        return self.encryptor.encrypt(pt)

    def decrypt(self, ciphertext: Ciphertext,
                num_slots: Optional[int] = None) -> np.ndarray:
        """Decrypt and decode back to complex slot values."""
        pt = self.decryptor.decrypt(ciphertext)
        return self.encoder.decode(pt, num_slots=num_slots)
