"""CKKS canonical-embedding encoder.

A CKKS plaintext is a vector ``z`` of ``n <= N/2`` complex numbers
(§2.1 of the paper).  Encoding maps ``z`` to an integer polynomial whose
evaluations at the primitive 2N-th roots of unity ``zeta^{5^j}`` equal
``Delta * z_j``; decoding evaluates the polynomial back and divides by
the scale.

Both directions are implemented with O(N log N) FFTs rather than the
n x N Vandermonde matrix: the slot values live at the odd-indexed bins
of a length-2N discrete Fourier transform, indexed by the powers of 5
(the same index arithmetic implemented by FAB's automorph unit, eq. 4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .context import CkksContext
from .modmath import ilog2
from .poly import RnsPolynomial
from .rns import RnsBasis


class Plaintext:
    """An encoded plaintext: an RNS polynomial plus its scale."""

    __slots__ = ("poly", "scale", "num_slots")

    def __init__(self, poly: RnsPolynomial, scale: float, num_slots: int):
        self.poly = poly
        self.scale = scale
        self.num_slots = num_slots

    @property
    def level_count(self) -> int:
        """Number of RNS limbs backing this plaintext."""
        return len(self.poly.basis)

    def __repr__(self) -> str:
        return (f"Plaintext(slots={self.num_slots}, scale=2^"
                f"{np.log2(self.scale):.1f}, limbs={self.level_count})")


def rotation_group_indices(ring_degree: int) -> np.ndarray:
    """Powers ``5^j mod 2N`` for j = 0..N/2-1 (the slot index group)."""
    m = 2 * ring_degree
    n_half = ring_degree // 2
    indices = np.empty(n_half, dtype=np.int64)
    acc = 1
    for j in range(n_half):
        indices[j] = acc
        acc = acc * 5 % m
    return indices


_INDEX_CACHE: Dict[int, np.ndarray] = {}


def _group_indices(ring_degree: int) -> np.ndarray:
    idx = _INDEX_CACHE.get(ring_degree)
    if idx is None:
        idx = rotation_group_indices(ring_degree)
        _INDEX_CACHE[ring_degree] = idx
    return idx


def _check_slots(num_slots: int, n_half: int) -> None:
    ilog2(num_slots)
    if num_slots > n_half:
        raise ValueError("num_slots must be <= N/2")


def _check_overflow(peak: float, basis: RnsBasis) -> None:
    """Reject encoded coefficients reaching half the basis modulus."""
    limit = float(basis.modulus) / 2.0
    if peak >= limit:
        raise ValueError(
            f"encoded coefficients (|c| ~ 2^{np.log2(max(peak, 1)):.1f}) "
            f"overflow the modulus (2^{np.log2(limit):.1f}); "
            "lower the scale or add limbs")


class CkksEncoder:
    """Encode/decode complex vectors to/from RNS plaintext polynomials."""

    def __init__(self, context: CkksContext):
        self.context = context
        self.ring_degree = context.params.ring_degree

    # ------------------------------------------------------------------
    # Core float <-> coefficient maps (scale-free)
    # ------------------------------------------------------------------

    def embed(self, slots: Sequence[complex]) -> np.ndarray:
        """Map N/2 slot values to N real polynomial coefficients.

        Inverse of :meth:`project`; the result are *unrounded* floats.
        """
        n = self.ring_degree
        m = 2 * n
        slots = np.asarray(slots, dtype=np.complex128)
        if slots.shape != (n // 2,):
            raise ValueError(f"expected {n // 2} slots, got {slots.shape}")
        idx = _group_indices(n)
        spectrum = np.zeros(m, dtype=np.complex128)
        spectrum[idx] = slots
        spectrum[(m - idx) % m] = np.conj(slots)
        # c_k = (1/N) * sum_m v[m] e^{-2 pi i m k / 2N}  for k < N.
        coeffs = np.fft.fft(spectrum)[:n] / n
        return np.real(coeffs)

    def project(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate real coefficients at the canonical points zeta^{5^j}."""
        n = self.ring_degree
        m = 2 * n
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (n,):
            raise ValueError(f"expected {n} coefficients, got {coeffs.shape}")
        spectrum = np.fft.fft(coeffs, m)
        idx = _group_indices(n)
        # p(zeta^m) = conj(FFT(c)[m]) because zeta = e^{+i pi / N}.
        return np.conj(spectrum[idx])

    # ------------------------------------------------------------------
    # Public encode / decode
    # ------------------------------------------------------------------

    def encode(self, values: Sequence[complex], scale: Optional[float] = None,
               basis: Optional[RnsBasis] = None,
               num_slots: Optional[int] = None) -> Plaintext:
        """Encode a complex vector into a :class:`Plaintext`.

        Args:
            values: up to ``n`` slot values (shorter vectors are padded
                with zeros; sparse n < N/2 uses replication packing).
            scale: encoding scale Delta (defaults to the context scale).
            basis: target RNS basis (defaults to the full Q basis).
            num_slots: slot count (power of two <= N/2).
        """
        n_half = self.ring_degree // 2
        if num_slots is None:
            num_slots = self.context.params.slots
        _check_slots(num_slots, n_half)
        values = np.asarray(list(values), dtype=np.complex128)
        if values.size > num_slots:
            raise ValueError(f"too many values for {num_slots} slots")
        padded = np.zeros(num_slots, dtype=np.complex128)
        padded[:values.size] = values
        # Sparse packing: replicate the n-slot vector N/2 / n times.
        replicated = np.tile(padded, n_half // num_slots)
        if scale is None:
            scale = self.context.params.scale
        if basis is None:
            basis = self.context.q_basis
        real_coeffs = self.embed(replicated) * scale
        _check_overflow(np.max(np.abs(real_coeffs)), basis)
        rounded = [int(round(c)) for c in real_coeffs]
        poly = RnsPolynomial.from_int_coeffs(rounded, self.ring_degree, basis)
        return Plaintext(poly.to_ntt(), float(scale), num_slots)

    def encode_constant(self, value: float, scale: float, basis: RnsBasis,
                        num_slots: int) -> Plaintext:
        """Encode the real constant ``value`` into every slot.

        A constant slot vector is the constant polynomial
        ``round(value * scale)``, and in NTT form every limb row is that
        integer mod ``q_i``, so no FFT and no NTT runs.  The result
        equals ``encode(np.full(num_slots, value), ...)`` limb for limb
        wherever that FFT's float error rounds away, as at the scales
        :class:`~repro.fhe.align.ScaleAligner` and bootstrapping use.
        """
        _check_slots(num_slots, self.ring_degree // 2)
        coeff = value * scale
        _check_overflow(abs(coeff), basis)
        residues = np.array([int(round(coeff)) % q for q in basis.primes],
                            dtype=np.int64)
        limbs = np.repeat(residues[:, None], self.ring_degree, axis=1)
        poly = RnsPolynomial(self.ring_degree, basis, limbs, is_ntt=True)
        return Plaintext(poly, float(scale), num_slots)

    def decode(self, plaintext: Plaintext,
               num_slots: Optional[int] = None) -> np.ndarray:
        """Decode a :class:`Plaintext` back to its complex slot values."""
        if num_slots is None:
            num_slots = plaintext.num_slots
        coeffs = np.array(plaintext.poly.integer_coefficients(),
                          dtype=np.float64)
        slots = self.project(coeffs) / plaintext.scale
        return slots[:num_slots]

    def decode_coefficients(self, plaintext: Plaintext) -> List[int]:
        """The exact centered integer coefficients of a plaintext."""
        return plaintext.poly.integer_coefficients()
