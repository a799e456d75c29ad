"""Scalar modular-arithmetic helpers shared across the RNS-CKKS substrate.

Everything here operates on plain Python integers (arbitrary precision),
which makes these routines the reference implementations that the
vectorized numpy kernels are tested against.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def modpow(base: int, exponent: int, modulus: int) -> int:
    """Return ``base ** exponent mod modulus`` (non-negative result)."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    return pow(base % modulus, exponent, modulus)


def modinv(value: int, modulus: int) -> int:
    """Return the multiplicative inverse of ``value`` modulo ``modulus``.

    Raises :class:`ValueError` if the inverse does not exist.
    """
    value %= modulus
    if value == 0:
        raise ValueError("0 has no inverse")
    g, x, _ = _extended_gcd(value, modulus)
    if g != 1:
        raise ValueError(f"{value} is not invertible modulo {modulus}")
    return x % modulus


def _extended_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def centered(value: int, modulus: int) -> int:
    """Map ``value mod modulus`` into the centered range [-q/2, q/2)."""
    value %= modulus
    if value >= (modulus + 1) // 2:
        value -= modulus
    return value


def centered_list(values: Iterable[int], modulus: int) -> List[int]:
    """Apply :func:`centered` element-wise."""
    return [centered(v, modulus) for v in values]


def bit_reverse(index: int, num_bits: int) -> int:
    """Reverse the ``num_bits`` low-order bits of ``index``."""
    result = 0
    for _ in range(num_bits):
        result = (result << 1) | (index & 1)
        index >>= 1
    return result


def bit_reverse_permutation(length: int) -> List[int]:
    """Return the bit-reversal permutation of ``range(length)``.

    ``length`` must be a power of two.
    """
    if not is_power_of_two(length):
        raise ValueError("length must be a power of two")
    num_bits = length.bit_length() - 1
    return [bit_reverse(i, num_bits) for i in range(length)]


def is_power_of_two(value: int) -> bool:
    """Return ``True`` iff ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Return log2 of a power-of-two ``value``."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1


def crt_reconstruct(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Exact CRT reconstruction of ``x`` in [0, prod(moduli)).

    This is the reference (big-integer) version of the RNS recombination
    in Eq. (1) of the paper, used in tests and in exact ModDown rounding.
    """
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have the same length")
    product = 1
    for q in moduli:
        product *= q
    acc = 0
    for r, q in zip(residues, moduli):
        q_star = product // q
        q_tilde = modinv(q_star % q, q)
        acc += (r * q_tilde % q) * q_star
    return acc % product


def crt_reconstruct_centered(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """CRT reconstruction mapped to the centered range [-Q/2, Q/2)."""
    product = 1
    for q in moduli:
        product *= q
    return centered(crt_reconstruct(residues, moduli), product)
