"""Negacyclic number-theoretic transform (NTT) over Z_q[x]/(x^N + 1).

This is the software analog of FAB's unified Cooley–Tukey NTT datapath
(paper §4.5): a single iterative butterfly network serves both the
forward and inverse transforms, differing only in the twiddle tables and
the final scaling by N^{-1}.

Like the datapath, which streams every RNS limb through its butterflies,
one call transforms a whole ``(L, N)`` limb matrix: each of the log N
stages is one vectorized pass over all limbs at once, against per-row
twiddles and per-row moduli.  The rows need not be distinct primes, so
key switching stacks the new limbs of every ModUp digit into one matrix
over a repeated prime list; and a leading batch axis ``(B, L, N)``
transforms several polynomials over the same primes (the two halves of
a ciphertext) in the same pass.  A one-prime context is the L = 1 case
of the same code and also accepts a plain length-N vector.

The stages have constant geometry (Pease): every forward stage pairs the
two contiguous halves of the row and writes its sums and differences to
the even and odd positions of a second buffer, the two buffers taking
turns; the inverse stage is the transpose, reading even and odd and
writing the halves.  After log N stages the entries are back in the
in-place Cooley–Tukey order, so inputs are in natural order and forward
outputs in bit-reversed order, as before.  Stage ``s`` needs the
twiddles ``table[:, m:2m]`` (m = 2^s) repeated with period m, a view of
the per-prime tables rather than a table of its own.

Reduction is lazy: a stage reduces its products modulo q and lets the
sums grow.  A full reduction runs before a stage only when a worst-case
bound, worked out once per context for its largest prime, says that a
product could otherwise reach 2^63 (:func:`_reduction_schedule`).

Primes are restricted to < 2**31 so that a product of two residues fits
exactly in int64; the paper's 54-bit limbs are handled by the analytic
performance model (:mod:`repro.core`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from .modmath import bit_reverse, ilog2, modinv
from .primes import MAX_FUNCTIONAL_PRIME_BITS, primitive_root_of_unity


class NttContext:
    """Precomputed tables for the negacyclic NTT modulo one or more primes.

    The forward transform maps coefficient representation to evaluation
    representation (values of the polynomial at the odd powers of the
    primitive 2N-th root ``psi``); the inverse transform maps back.
    Row ``i`` of a limb matrix, or of every matrix in a stack, is
    transformed modulo ``moduli[i]``; a prime may appear in several rows.

    Attributes:
        ring_degree: the polynomial degree N (power of two).
        moduli: the primes q_i, each with q_i ≡ 1 (mod 2N).
    """

    def __init__(self, ring_degree: int, moduli: Union[int, Sequence[int]]):
        self.ring_degree = ring_degree
        self.moduli = tuple(np.atleast_1d(moduli).tolist())
        self.log_degree = ilog2(ring_degree)
        tables = [_prime_tables(ring_degree, q) for q in self.moduli]
        forward, inverse, degree_inv = zip(*tables)
        self._forward_table = np.stack(forward)
        self._inverse_table = np.stack(inverse)
        self._degree_inv = np.array(degree_inv, dtype=np.int64)[:, None]
        self._q = np.array(self.moduli, dtype=np.int64)[:, None]
        # Stage s twiddles with table[:, m:2m], m = 2^s, repeated with
        # period m along the half it multiplies: a (L, 1, m) view that
        # broadcasts over that half seen as (..., L, N/2m, m).
        reduce_fwd, reduce_inv = _reduction_schedule(self.log_degree, max(self.moduli))
        self._forward_stages = tuple(
            (self._forward_table[:, None, 1 << s : 2 << s], reduce)
            for s, reduce in enumerate(reduce_fwd)
        )
        self._inverse_stages = tuple(
            (self._inverse_table[:, None, 1 << s : 2 << s], reduce)
            for s, reduce in zip(reversed(range(self.log_degree)), reduce_inv)
        )
        self._scale_reduce = reduce_inv[-1]

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

    def _reduced_stack(self, x) -> np.ndarray:
        """``x`` as a fresh ``(B, L, N)`` stack of residues mod each row's
        prime.  ``x`` is an ``(L, N)`` matrix or a ``(..., L, N)`` stack
        of them; a one-prime context also takes a length-N vector."""
        a = np.asarray(x, dtype=np.int64)
        shape = (len(self.moduli), self.ring_degree)
        if a.shape[-2:] != shape and not (a.shape == shape[1:] and shape[0] == 1):
            msg = f"expected shape (..., {shape[0]}, {shape[1]}), got {a.shape}"
            raise ValueError(msg)
        return a.reshape((-1,) + shape) % self._q

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT (coefficient → evaluation order).

        The output ordering is the standard bit-reversed CT ordering:
        output ``k`` holds the value at ``psi^(2*br(k) + 1)``, where
        ``br`` reverses the log N index bits.  Pointwise products are
        order-agnostic; the NTT-form automorphism of
        :meth:`repro.fhe.poly.RnsPolynomial.automorphism` relies on it.
        """
        a = self._reduced_stack(coeffs)
        out = np.empty_like(a)
        shape = a.shape[:2]
        half = self.ring_degree // 2
        for twiddles, reduce in self._forward_stages:
            if reduce:
                a %= self._q
            # The halves pair up; sums go to the even slots of the other
            # buffer and differences to the odd ones.
            lo = a[..., :half]
            t = a[..., half:].reshape(shape + (-1, twiddles.shape[-1]))
            t = (t * twiddles).reshape(shape + (half,))
            t %= self._q
            pairs = out.reshape(shape + (half, 2))
            np.add(lo, t, out=pairs[..., 0])
            np.subtract(lo, t, out=pairs[..., 1])
            a, out = out, a
        a %= self._q
        return a.reshape(np.shape(coeffs))

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Negacyclic inverse NTT (evaluation → coefficient order)."""
        a = self._reduced_stack(values)
        out = np.empty_like(a)
        shape = a.shape[:2]
        half = self.ring_degree // 2
        q = self._q[:, :, None]
        for twiddles, reduce in self._inverse_stages:
            if reduce:
                a %= self._q
            # The transpose: even and odd slots pair up; sums go to the
            # first half, twiddled differences to the second.
            pairs = a.reshape(shape + (half, 2))
            even, odd = pairs[..., 0], pairs[..., 1]
            np.add(even, odd, out=out[..., :half])
            np.subtract(even, odd, out=out[..., half:])
            hi = out.reshape(shape + (2, -1, twiddles.shape[-1]))[:, :, 1]
            hi *= twiddles
            hi %= q
            a, out = out, a
        if self._scale_reduce:
            a %= self._q
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
        a = np.asarray(a_eval, dtype=np.int64)
        return a * np.asarray(b_eval, dtype=np.int64) % self.modulus


@lru_cache(maxsize=None)
def _prime_tables(ring_degree: int, q: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """One prime's forward and inverse twiddle rows and ``N^{-1} mod q``,
    computed once and shared by every context with a row modulo ``q``."""
    bits = q.bit_length()
    if bits > MAX_FUNCTIONAL_PRIME_BITS:
        limit = f"functional NTT supports primes < 2^{MAX_FUNCTIONAL_PRIME_BITS}"
        raise ValueError(f"{limit}; got {bits}-bit modulus")
    if (q - 1) % (2 * ring_degree) != 0:
        raise ValueError("modulus is not NTT-friendly for this degree")
    psi = primitive_root_of_unity(2 * ring_degree, q)
    forward = _twiddle_row(psi, q, ring_degree)
    inverse = _twiddle_row(modinv(psi, q), q, ring_degree)
    return forward, inverse, modinv(ring_degree, q)


def _reduction_schedule(log_degree: int, q: int) -> Tuple[Tuple[bool, ...], ...]:
    """Which stages start with a full ``a %= q``, so that no product of a
    residue and a twiddle (each at most ``q - 1``) can reach 2^63.

    Returns the forward flags, one per stage, and the inverse flags, one
    per stage in the order they run plus one for the final ``N^{-1}``
    scaling.  Computed in Python ints for the largest prime of a
    context, which bounds every row.

    ``bound`` is the largest magnitude an entry can have entering a
    stage.  A forward stage adds and subtracts a reduced product, so it
    widens the bound by ``q - 1``; an inverse stage's sums double it
    (its products, reduced, stay below ``q``)."""
    r = q - 1
    forward, inverse = [], []
    bound = r
    for _ in range(log_degree):
        forward.append(bound * r >= 1 << 63)
        bound = (r if forward[-1] else bound) + r
    bound = r
    for _ in range(log_degree + 1):
        inverse.append(bound * r >= 1 << 63)
        bound = 2 * (r if inverse[-1] else bound)
    return tuple(forward), tuple(inverse)


def _twiddle_row(root: int, modulus: int, ring_degree: int) -> np.ndarray:
    """Powers of ``root`` in bit-reversed order, as used stage-by-stage
    by the iterative Cooley–Tukey network (Longa–Naehrig layout).

    Stored as int32, half the memory of int64: every twiddle is below
    the modulus < 2^31, and a product with an int64 residue row is
    computed in int64."""
    raw = [1]
    for _ in range(ring_degree - 1):
        raw.append(raw[-1] * root % modulus)
    log_degree = ilog2(ring_degree)
    order = [bit_reverse(i, log_degree) for i in range(ring_degree)]
    row = np.array([raw[i] for i in order], dtype=np.int32)
    row.flags.writeable = False
    return row


_CONTEXT_CACHE: Dict[Tuple[int, Tuple[int, ...]], NttContext] = {}


def get_ntt_context(ring_degree: int, moduli: Union[int, Sequence[int]]) -> NttContext:
    """Return a cached :class:`NttContext` for ``ring_degree`` and one
    prime or a sequence of primes (one per limb-matrix row)."""
    key = (ring_degree, tuple(np.atleast_1d(moduli).tolist()))
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is None:
        ctx = NttContext(ring_degree, key[1])
        _CONTEXT_CACHE[key] = ctx
    return ctx
