"""Negacyclic number-theoretic transform (NTT) over Z_q[x]/(x^N + 1).

This is the software analog of FAB's unified Cooley–Tukey NTT datapath
(paper §4.5): a single iterative butterfly network serves both the
forward and inverse transforms, differing only in the twiddle tables and
the final scaling by N^{-1}.

Like the datapath, which streams every RNS limb through its butterflies,
one call transforms a whole ``(L, N)`` limb matrix: each of the log N
stages is one vectorized butterfly pass over all limbs at once, against
per-row twiddles and per-row moduli.  A one-prime context is the L = 1
case of the same code and also accepts a plain length-N vector.

Primes are restricted to < 2**31 so that a product of two residues fits
exactly in int64; the paper's 54-bit limbs are handled bit-exactly by
:mod:`repro.core.arith` (scalar) and by the analytic performance model.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .modmath import bit_reverse, ilog2, modinv
from .primes import MAX_FUNCTIONAL_PRIME_BITS, primitive_root_of_unity


class NttContext:
    """Precomputed tables for the negacyclic NTT modulo one or more primes.

    The forward transform maps coefficient representation to evaluation
    representation (values of the polynomial at the odd powers of the
    primitive 2N-th root ``psi``); the inverse transform maps back.
    Row ``i`` of a limb matrix is transformed modulo ``moduli[i]``.

    Attributes:
        ring_degree: the polynomial degree N (power of two).
        moduli: the primes q_i, each with q_i ≡ 1 (mod 2N).
    """

    def __init__(self, ring_degree: int, moduli: Union[int, Sequence[int]]):
        self.ring_degree = ring_degree
        self.moduli = tuple(np.atleast_1d(moduli).tolist())
        self.log_degree = ilog2(ring_degree)
        rows = []
        for q in self.moduli:
            if q.bit_length() > MAX_FUNCTIONAL_PRIME_BITS:
                raise ValueError(
                    f"functional NTT supports primes < "
                    f"2^{MAX_FUNCTIONAL_PRIME_BITS}; "
                    f"got {q.bit_length()}-bit modulus")
            if (q - 1) % (2 * ring_degree) != 0:
                raise ValueError("modulus is not NTT-friendly for this degree")
            psi = primitive_root_of_unity(2 * ring_degree, q)
            rows.append((self._twiddle_row(psi, q),
                         self._twiddle_row(modinv(psi, q), q),
                         [modinv(ring_degree, q)], [q]))
        forward, inverse, degree_inv, q_col = zip(*rows)
        self._forward_table = np.array(forward, dtype=np.int64)
        self._inverse_table = np.array(inverse, dtype=np.int64)
        self._degree_inv = np.array(degree_inv, dtype=np.int64)
        self._q = np.array(q_col, dtype=np.int64)

    def _twiddle_row(self, root: int, modulus: int) -> List[int]:
        """Powers of ``root`` in bit-reversed order, as used stage-by-stage
        by the iterative Cooley–Tukey network (Longa–Naehrig layout)."""
        raw = [1]
        for _ in range(self.ring_degree - 1):
            raw.append(raw[-1] * root % modulus)
        return [raw[bit_reverse(i, self.log_degree)]
                for i in range(self.ring_degree)]

    @property
    def modulus(self) -> int:
        """The prime of a one-prime context."""
        (q,) = self.moduli
        return q

    @property
    def _forward_twiddles(self) -> np.ndarray:
        """A one-prime context's forward table, as the hardware address
        generator (:func:`repro.core.ntt_datapath.execute_schedule`)
        consumes it."""
        (row,) = self._forward_table
        return row

    # ------------------------------------------------------------------
    # Transforms
    # ------------------------------------------------------------------

    def _reduced_matrix(self, x) -> np.ndarray:
        """``x`` as a fresh ``(L, N)`` matrix of residues mod each row's
        prime; a one-prime context also takes a length-N vector."""
        a = np.asarray(x, dtype=np.int64)
        shape = (len(self.moduli), self.ring_degree)
        if a.shape != shape and not (a.shape == shape[1:]
                                     and shape[0] == 1):
            raise ValueError(f"expected shape {shape}, got {a.shape}")
        return a.reshape(shape) % self._q

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT (coefficient → evaluation order).

        The output ordering is the standard bit-reversed CT ordering; it is
        consistent between :meth:`forward` and :meth:`inverse`, which is
        all the scheme requires (pointwise products are order-agnostic).
        """
        a = self._reduced_matrix(coeffs)
        q = self._q[:, :, None]
        for stage in range(self.log_degree):
            # m blocks per row; block j of row i uses twiddle tw[i, m + j].
            m = 1 << stage
            pairs = a.reshape(len(self.moduli), m, 2, -1)
            lo, hi = pairs[:, :, 0], pairs[:, :, 1]
            prod = hi * self._forward_table[:, m:2 * m, None] % q
            np.subtract(lo, prod, out=hi)
            lo += prod
            a %= self._q
        return a.reshape(np.shape(coeffs))

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT (evaluation → coefficient order)."""
        a = self._reduced_matrix(values)
        q = self._q[:, :, None]
        for stage in reversed(range(self.log_degree)):
            h = 1 << stage
            pairs = a.reshape(len(self.moduli), h, 2, -1)
            lo, hi = pairs[:, :, 0], pairs[:, :, 1]
            diff = (lo - hi) % q
            lo += hi
            lo %= q
            np.multiply(diff, self._inverse_table[:, h:2 * h, None], out=hi)
            hi %= q
        a *= self._degree_inv
        a %= self._q
        return a.reshape(np.shape(values))

    # ------------------------------------------------------------------
    # Reference helpers (used by tests)
    # ------------------------------------------------------------------

    def negacyclic_convolution(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Schoolbook negacyclic product ``a*b mod (x^N + 1, q)``.

        O(N^2); reference implementation for testing the NTT pointwise
        multiplication path of a one-prime context.
        """
        q = self.modulus
        n = self.ring_degree
        result = np.zeros(n, dtype=np.int64)
        a = np.asarray(a, dtype=np.int64) % q
        b = np.asarray(b, dtype=np.int64) % q
        for i in range(n):
            if a[i] == 0:
                continue
            ai = int(a[i])
            for j in range(n):
                k = i + j
                term = ai * int(b[j]) % q
                if k >= n:
                    result[k - n] = (result[k - n] - term) % q
                else:
                    result[k] = (result[k] + term) % q
        return result % q

    def pointwise_multiply(self, a_eval: np.ndarray, b_eval: np.ndarray) -> np.ndarray:
        """Pointwise product of two evaluation-representation vectors."""
        return np.asarray(a_eval, dtype=np.int64) * np.asarray(b_eval, dtype=np.int64) % self.modulus


_CONTEXT_CACHE: Dict[Tuple[int, Tuple[int, ...]], NttContext] = {}


def get_ntt_context(ring_degree: int,
                    moduli: Union[int, Sequence[int]]) -> NttContext:
    """Return a cached :class:`NttContext` for ``ring_degree`` and one
    prime or a sequence of primes (one per limb-matrix row)."""
    key = (ring_degree, tuple(np.atleast_1d(moduli).tolist()))
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        ctx = NttContext(ring_degree, key[1])
        _CONTEXT_CACHE[key] = ctx
    return ctx
