"""Residue number system (RNS) bases and base conversion.

Implements the RNS machinery of §2.1.1 of the paper: a ciphertext
modulus ``Q = q_1 ... q_l`` is represented by its limbs, and the
``ModUp`` / ``ModDown`` key-switching subroutines rely on the (fast,
approximate) RNS base-conversion of Eq. (1):

    [x]_p = sum_i [x_i * Q~_i]_{q_i} * Q*_i  (mod p)

where ``Q*_i = Q / q_i`` and ``Q~_i = (Q*_i)^{-1} mod q_i``.  The fast
conversion omits the subtraction of the overflow multiple of ``Q`` and
therefore returns ``x + u*Q`` for a small ``u`` (0 <= u < l); this is
the standard HPS-style approximate conversion whose error is absorbed
into the scheme noise.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from .modmath import modinv


class RnsBasis:
    """An ordered set of pairwise-coprime NTT primes.

    Attributes:
        primes: the limb moduli ``(q_1, ..., q_l)``.
    """

    def __init__(self, primes: Sequence[int]):
        primes = tuple(int(q) for q in primes)
        if len(set(primes)) != len(primes):
            raise ValueError("RNS basis primes must be distinct")
        if not primes:
            raise ValueError("RNS basis must contain at least one prime")
        self.primes = primes

    @cached_property
    def column(self) -> np.ndarray:
        """The primes as a read-only ``(l, 1)`` int64 column, which
        reduces an ``(l, N)`` limb matrix row by row."""
        column = np.array(self.primes, dtype=np.int64)[:, None]
        column.flags.writeable = False
        return column

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)

    def __eq__(self, other) -> bool:
        return isinstance(other, RnsBasis) and self.primes == other.primes

    def __hash__(self) -> int:
        return hash(self.primes)

    def __repr__(self) -> str:
        return f"RnsBasis({list(self.primes)})"

    @property
    def modulus(self) -> int:
        """The full modulus Q (exact big integer)."""
        product = 1
        for q in self.primes:
            product *= q
        return product

    def subbasis(self, count: int) -> "RnsBasis":
        """The basis formed by the first ``count`` primes."""
        if not 0 < count <= len(self.primes):
            raise ValueError(f"invalid subbasis size {count}")
        return RnsBasis(self.primes[:count])

    def q_star_mod(self, target: int) -> np.ndarray:
        """``Q*_i mod target`` for every limb i, as an int64 vector."""
        modulus = self.modulus
        return np.array(
            [(modulus // q) % target for q in self.primes], dtype=np.int64)

    def q_tilde(self) -> np.ndarray:
        """``Q~_i = (Q/q_i)^{-1} mod q_i`` for every limb i."""
        modulus = self.modulus
        return np.array(
            [modinv((modulus // q) % q, q) for q in self.primes],
            dtype=np.int64)


class BaseConverter:
    """Fast approximate RNS base conversion from ``source`` to ``target``.

    Precomputes ``Q~_i``, ``Q*_i mod p_j`` and ``Q mod p_j`` once.  Both
    conversions run one kernel: the ``y_i = [x_i * Q~_i]_{q_i}`` are
    computed once and reused for every output limb (the smart operation
    scheduling of §4.6 of the paper), and the inner product over the
    source limbs is a single broadcast multiply-reduce over
    ``(target, source, N)``.  Every reduced term is below p < 2^31, so
    the sum over up to 2^32 source limbs cannot overflow int64.

    Limb arguments are ``(len(source), N)`` matrices or stacks
    ``(..., len(source), N)`` of them; each matrix converts on its own.
    """

    def __init__(self, source: RnsBasis, target: RnsBasis):
        self.source = source
        self.target = target
        self._q_tilde = source.q_tilde()[:, None]
        # [j, i, 0] = Q*_i mod p_j.
        self._q_star = np.stack(
            [source.q_star_mod(p) for p in target.primes])[:, :, None]
        self._q_mod_target = np.array(
            [source.modulus % p for p in target.primes],
            dtype=np.int64)[:, None]

    def _terms(self, limbs) -> np.ndarray:
        """``y_i = x_i * Q~_i mod q_i`` for every source limb."""
        limbs = np.asarray(limbs, dtype=np.int64)
        if limbs.ndim < 2 or limbs.shape[-2] != len(self.source):
            raise ValueError(
                f"expected ({len(self.source)}, n) limbs, got {limbs.shape}")
        return limbs * self._q_tilde % self.source.column

    def _inner_product(self, y: np.ndarray) -> np.ndarray:
        """``sum_i y_i * Q*_i mod p_j`` for every target limb j."""
        p = self.target.column
        terms = y[..., None, :, :] * self._q_star
        terms %= p[:, :, None]
        return terms.sum(axis=-2) % p

    def convert(self, limbs: np.ndarray) -> np.ndarray:
        """Convert residue matrix ``(len(source), n)`` to the target basis.

        Returns an ``(len(target), n)`` int64 matrix congruent to
        ``x + u*Q`` in each target limb, with ``0 <= u < len(source)``.
        """
        return self._inner_product(self._terms(limbs))

    def convert_exact_floor(self, limbs: np.ndarray) -> np.ndarray:
        """Exact conversion of the canonical lift ``x in [0, Q)``.

        Uses the float-correction technique standard in RNS-CKKS
        implementations: with ``y_i = [x_i * Q~_i]_{q_i}`` the exact lift
        is ``sum_i y_i * Q*_i - u * Q`` where ``u = floor(sum_i y_i/q_i)``.
        The correction integer ``u`` is computed in float64, which is
        exact except when ``x/Q`` is within ~l*2^-52 of an integer.
        """
        y = self._terms(limbs)
        fractions = (y / self.source.column).sum(axis=-2)
        u = np.floor(fractions + 1e-12).astype(np.int64)
        acc = self._inner_product(y)
        return (acc - u[..., None, :] * self._q_mod_target) \
            % self.target.column

    def convert_exact_centered(self, limbs: np.ndarray) -> np.ndarray:
        """Exact conversion via big-int CRT with centered lift.

        O(n * l) big-integer operations — reference implementation used
        by tests and by exact rounding paths, not by the hot path.
        """
        limbs = np.asarray(limbs, dtype=np.int64)
        modulus = self.source.modulus
        half = modulus // 2
        n = limbs.shape[1]
        out = np.zeros((len(self.target), n), dtype=np.int64)
        q_star = [modulus // q for q in self.source.primes]
        q_tilde = self._q_tilde.ravel().tolist()
        for col in range(n):
            value = 0
            for i, q in enumerate(self.source.primes):
                value += (int(limbs[i, col]) * q_tilde[i] % q) * q_star[i]
            value %= modulus
            if value >= half:
                value -= modulus
            for j, p in enumerate(self.target.primes):
                out[j, col] = value % p
        return out


@lru_cache(maxsize=None)
def inverse_column(basis: RnsBasis, value: int) -> np.ndarray:
    """``value^{-1} mod q_i`` for every prime of ``basis``, as a read-only
    ``(l, 1)`` column; computed once per basis and value (``P`` for
    ModDown, the dropped prime for rescaling)."""
    column = np.array([modinv(value % q, q) for q in basis.primes],
                      dtype=np.int64)[:, None]
    column.flags.writeable = False
    return column


_CONVERTER_CACHE: Dict[Tuple[RnsBasis, RnsBasis], BaseConverter] = {}


def get_base_converter(source: RnsBasis, target: RnsBasis) -> BaseConverter:
    """Return a cached :class:`BaseConverter` for the basis pair."""
    key = (source, target)
    conv = _CONVERTER_CACHE.get(key)
    if conv is None:
        conv = BaseConverter(source, target)
        _CONVERTER_CACHE[key] = conv
    return conv
