"""NTT-friendly prime generation and roots of unity.

The negacyclic NTT over ``Z_q[x]/(x^N + 1)`` requires a prime
``q ≡ 1 (mod 2N)`` so that a primitive 2N-th root of unity ``psi``
exists in ``Z_q``.  This module generates such primes (Miller–Rabin)
and the associated roots.

The functional layer keeps primes below 2**31 so that products of two
residues fit in a signed 64-bit integer, which lets the NTT and all
pointwise kernels run vectorized in numpy with exact arithmetic.  The
paper's 54-bit limbs are modelled analytically (:mod:`repro.core`).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from .modmath import modpow

#: Largest prime bit-width usable by the vectorized functional layer.
MAX_FUNCTIONAL_PRIME_BITS = 31

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)


def is_prime(candidate: int, rounds: int = 40) -> bool:
    """Miller–Rabin primality test (deterministic for < 3.3e24 bases)."""
    if candidate < 2:
        return False
    for p in _SMALL_PRIMES:
        if candidate == p:
            return True
        if candidate % p == 0:
            return False
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Deterministic witness set covers all 64-bit integers; extend with
    # random witnesses for larger candidates.
    witnesses = list(_SMALL_PRIMES[:12])
    rng = random.Random(candidate)
    while len(witnesses) < rounds:
        witnesses.append(rng.randrange(2, candidate - 1))
    for a in witnesses:
        a %= candidate
        if a in (0, 1, candidate - 1):
            continue
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def find_ntt_prime(bits: int, ring_degree: int, avoid: Sequence[int] = (),
                   below: Optional[int] = None) -> int:
    """Find a prime ``q ≡ 1 (mod 2N)`` of roughly ``bits`` bits.

    Args:
        bits: target bit-width of the prime.
        ring_degree: the ring dimension N (power of two).
        avoid: primes already in use (skipped).
        below: if given, search downward starting strictly below this value.

    Returns:
        An NTT-friendly prime.
    """
    m = 2 * ring_degree
    avoid_set = set(avoid)
    if below is not None:
        candidate = ((below - 1) // m) * m + 1
        while candidate >= below:
            candidate -= m
    else:
        candidate = ((1 << bits) // m) * m + 1
        # Start just under 2**bits.
        while candidate >= (1 << bits):
            candidate -= m
    while candidate > m:
        if candidate not in avoid_set and is_prime(candidate):
            return candidate
        candidate -= m
    raise ValueError(f"no NTT prime of {bits} bits for N={ring_degree}")


def generate_prime_chain(count: int, bits: int, ring_degree: int,
                         first_bits: Optional[int] = None) -> List[int]:
    """Generate ``count`` distinct NTT-friendly primes of ~``bits`` bits.

    ``first_bits`` optionally gives the first prime (the base modulus q0)
    a different width, as is common in CKKS parameterizations.
    """
    primes: List[int] = []
    if count == 0:
        return primes
    if first_bits is not None:
        primes.append(find_ntt_prime(first_bits, ring_degree))
    below = None
    while len(primes) < count:
        q = find_ntt_prime(bits, ring_degree, avoid=primes, below=below)
        primes.append(q)
        below = q
    return primes


def find_primitive_root(modulus: int) -> int:
    """Find a generator of the multiplicative group of ``Z_q``."""
    order = modulus - 1
    factors = _prime_factors(order)
    for g in range(2, modulus):
        if all(modpow(g, order // f, modulus) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root modulo {modulus}")


def _prime_factors(value: int) -> List[int]:
    """Return the distinct prime factors of ``value`` (trial division +
    Pollard rho for large cofactors)."""
    factors = set()
    for p in _SMALL_PRIMES:
        while value % p == 0:
            factors.add(p)
            value //= p
    stack = [value] if value > 1 else []
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        if is_prime(n):
            factors.add(n)
            continue
        d = _pollard_rho(n)
        stack.append(d)
        stack.append(n // d)
    return sorted(factors)


def _pollard_rho(n: int) -> int:
    """Pollard's rho factorization; returns a nontrivial factor of n."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        x = rng.randrange(2, n)
        y = x
        c = rng.randrange(1, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = _gcd(abs(x - y), n)
        if d != n:
            return d


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def primitive_root_of_unity(order: int, modulus: int) -> int:
    """Return a primitive ``order``-th root of unity modulo ``modulus``.

    ``order`` must divide ``modulus - 1``.
    """
    if (modulus - 1) % order != 0:
        raise ValueError(f"{order} does not divide {modulus}-1")
    generator = find_primitive_root(modulus)
    root = modpow(generator, (modulus - 1) // order, modulus)
    # Sanity: root^order == 1 and root^(order/2) == -1 for even order.
    if modpow(root, order, modulus) != 1:
        raise AssertionError("root order violated")
    if order % 2 == 0 and modpow(root, order // 2, modulus) != modulus - 1:
        raise AssertionError("root is not primitive")
    return root
