"""Equivalence tests for the limb-batched kernels of the functional CKKS layer.

Every batched kernel is checked bit for bit against a plain reference
kept in this file:

* the base-conversion kernels against a target-by-source loop over
  length-N residue rows;
* ModUp, ModDown and the full key switch against per-digit pipelines
  built from one-basis NTTs and that loop;
* the NTT-form automorphism against the coefficient-form walk, for
  every Galois element;
* stacked NTTs and the paired rescale against one call per polynomial.

The last test counts the NTT calls and limb rows of one bootstrap, so a
change to the batching shows whether it moved rows between calls or
dropped work.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe import (
    BootstrapConfig,
    Bootstrapper,
    Ciphertext,
    CkksContext,
    CkksEncoder,
    CkksParams,
    CkksScheme,
    Evaluator,
    KeyGenerator,
    KeySwitcher,
)
from repro.fhe.keys import conjugation_element, galois_element_for_rotation
from repro.fhe.ntt import NttContext, get_ntt_context
from repro.fhe.poly import RnsPolynomial
from repro.fhe.primes import generate_prime_chain
from repro.fhe.rns import BaseConverter, RnsBasis


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------


def convert_reference(source, target, limbs, exact_floor=False):
    """Eq. (1) one target limb and one source limb at a time.

    Each step adds one product below 2^62 and reduces, so no int64
    intermediate can overflow.  ``exact_floor`` subtracts the same
    float-estimated multiple of Q as the library's exact conversion.
    """
    big_q = source.modulus
    q = np.array(source.primes, dtype=np.int64)[:, None]
    q_tilde = [pow(big_q // qi % qi, -1, qi) for qi in source.primes]
    y = limbs * np.array(q_tilde, dtype=np.int64)[:, None] % q
    u = np.floor((y / q).sum(axis=0) + 1e-12).astype(np.int64)
    out = np.zeros((len(target), limbs.shape[1]), dtype=np.int64)
    for j, p in enumerate(target.primes):
        acc = np.zeros(limbs.shape[1], dtype=np.int64)
        for i, qi in enumerate(source.primes):
            acc = (acc + y[i] * (big_q // qi % p)) % p
        if exact_floor:
            acc = (acc - u * (big_q % p)) % p
        out[j] = acc
    return out


def automorphism_walk(limbs, primes, g):
    """``x -> x^g`` on coefficient rows: ``c_i`` moves to ``i*g mod 2N``
    and changes sign when it wraps past ``x^N = -1``."""
    n = limbs.shape[1]
    q = np.array(primes, dtype=np.int64)
    out = np.empty_like(limbs)
    for i in range(n):
        k = i * g % (2 * n)
        if k < n:
            out[:, k] = limbs[:, i]
        else:
            out[:, k - n] = (-limbs[:, i]) % q
    return out


def ntt_automorphism_reference(limbs, primes, g):
    """The NTT-form automorphism as inverse NTT, walk, forward NTT."""
    ctx = get_ntt_context(limbs.shape[1], primes)
    return ctx.forward(automorphism_walk(ctx.inverse(limbs), primes, g))


def mod_up_reference(digit, target):
    """One digit's ModUp: its own limbs pass through, the rest are
    converted from coefficient form and transformed back."""
    n = digit.ring_degree
    own = dict(zip(digit.basis.primes, digit.to_ntt().limbs))
    new = RnsBasis([p for p in target.primes if p not in own])
    converted = convert_reference(digit.basis, new, digit.to_coeff().limbs)
    new_rows = iter(get_ntt_context(n, new.primes).forward(converted))
    return np.array([own[p] if p in own else next(new_rows) for p in target.primes])


def mod_down_reference(limbs, q_basis, p_basis):
    """Exact division by P of one NTT-form polynomial over Q_l ++ P."""
    n = limbs.shape[1]
    num_q = len(q_basis)
    p_coeff = get_ntt_context(n, p_basis.primes).inverse(limbs[num_q:])
    lifted = convert_reference(p_basis, q_basis, p_coeff, exact_floor=True)
    lifted = get_ntt_context(n, q_basis.primes).forward(lifted)
    q = np.array(q_basis.primes, dtype=np.int64)[:, None]
    big_p = p_basis.modulus
    inv_p = [pow(big_p % qi, -1, qi) for qi in q_basis.primes]
    return (limbs[:num_q] - lifted) % q * np.array(inv_p)[:, None] % q


def switch_reference(ctx, poly, key, galois_element=None):
    """Decomp, per-digit ModUp, optional automorphism of each raised
    digit, KSKIP and per-polynomial ModDown."""
    q_basis = poly.basis
    raised = RnsBasis(q_basis.primes + ctx.p_basis.primes)
    key_rows = [ctx.full_basis.primes.index(p) for p in raised.primes]
    q = np.array(raised.primes, dtype=np.int64)[:, None]
    acc = np.zeros((2, len(raised), poly.ring_degree), dtype=np.int64)
    for digit, pair in zip(ctx.digit_indices(len(q_basis)), key.pairs):
        d = mod_up_reference(poly.keep_limbs(digit), raised)
        if galois_element is not None:
            d = ntt_automorphism_reference(d, raised.primes, galois_element)
        for k, part in enumerate(pair):
            acc[k] = (acc[k] + d * part.limbs[key_rows]) % q
    return [mod_down_reference(a, q_basis, ctx.p_basis) for a in acc]


# ----------------------------------------------------------------------
# Base conversion
# ----------------------------------------------------------------------

PRIMES_31 = generate_prime_chain(54, 31, 64)


def residues(basis, rng, n=24):
    """Random residues, plus one all-zero and one all-``q-1`` column."""
    limbs = np.stack([rng.integers(0, q, n) for q in basis.primes])
    limbs[:, 0] = 0
    limbs[:, 1] = np.array(basis.primes) - 1
    return limbs


class TestConversionKernel:
    @pytest.mark.parametrize(
        "num_source, num_target",
        [(1, 1), (1, 27), (27, 1), (27, 27), (5, 22), (8, 19), (19, 8)],
    )
    def test_convert_matches_reference(self, num_source, num_target, rng):
        assert all(q.bit_length() == 31 for q in PRIMES_31)
        source = RnsBasis(PRIMES_31[:num_source])
        target = RnsBasis(PRIMES_31[27 : 27 + num_target])
        limbs = residues(source, rng)
        conv = BaseConverter(source, target)
        expected = convert_reference(source, target, limbs)
        assert np.array_equal(conv.convert(limbs), expected)

    @pytest.mark.parametrize(
        "num_source, num_target",
        [(1, 1), (1, 27), (27, 1), (27, 27), (8, 19), (8, 5)],
    )
    def test_exact_floor_matches_reference(self, num_source, num_target, rng):
        source = RnsBasis(PRIMES_31[:num_source])
        target = RnsBasis(PRIMES_31[27 : 27 + num_target])
        limbs = residues(source, rng)
        conv = BaseConverter(source, target)
        expected = convert_reference(source, target, limbs, exact_floor=True)
        assert np.array_equal(conv.convert_exact_floor(limbs), expected)

    def test_largest_terms_do_not_overflow(self):
        """All-``q-1`` residues over 27 sources make every reduced term
        as large as it gets; the result must still be exact."""
        source = RnsBasis(PRIMES_31[:27])
        target = RnsBasis(PRIMES_31[27:])
        limbs = np.repeat(np.array(source.primes, dtype=np.int64)[:, None] - 1, 4, 1)
        big_q = source.modulus
        out = BaseConverter(source, target).convert(limbs)
        # x = Q - 1 plus some multiple u*Q with 0 <= u < 27.
        for j, p in enumerate(target.primes):
            assert int(out[j, 0]) in {(u * big_q + big_q - 1) % p for u in range(27)}
        assert np.array_equal(out, convert_reference(source, target, limbs))


# ----------------------------------------------------------------------
# Key switching
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def keyed():
    """Seven limbs in digits of three: the last digit is a short one."""
    ctx = CkksContext(
        CkksParams(
            ring_degree=64,
            num_limbs=7,
            scale_bits=24,
            dnum=3,
            hamming_weight=8,
            seed=21,
        )
    )
    keygen = KeyGenerator(ctx)
    secret = keygen.gen_secret_key()
    relin = keygen.gen_switching_key(secret.poly * secret.poly, secret, "s^2")
    g = galois_element_for_rotation(64, 3)
    rotation = keygen.gen_galois_key(secret, g)
    return ctx, KeySwitcher(ctx), relin, g, rotation


LEVELS = [7, 4, 3, 1]


class TestKeySwitchMatchesPerDigit:
    @pytest.mark.parametrize("num_limbs", LEVELS)
    def test_switch(self, keyed, num_limbs):
        ctx, switcher, relin, _, _ = keyed
        poly = ctx.sample_uniform(ctx.basis_at_level(num_limbs))
        u0, u1 = switcher.switch(poly, relin)
        expected = switch_reference(ctx, poly, relin)
        assert np.array_equal(u0.limbs, expected[0])
        assert np.array_equal(u1.limbs, expected[1])

    @pytest.mark.parametrize("num_limbs", LEVELS)
    def test_hoisted_decompose(self, keyed, num_limbs):
        ctx, switcher, _, _, _ = keyed
        poly = ctx.sample_uniform(ctx.basis_at_level(num_limbs))
        raised = RnsBasis(poly.basis.primes + ctx.p_basis.primes)
        digits = switcher.hoisted_decompose(poly)
        indices = ctx.digit_indices(num_limbs)
        assert len(digits) == len(indices)
        for digit, idx in zip(digits, indices):
            assert digit.is_ntt and digit.basis == raised
            expected = mod_up_reference(poly.keep_limbs(idx), raised)
            assert np.array_equal(digit.limbs, expected)

    @pytest.mark.parametrize("ntt", [True, False])
    @pytest.mark.parametrize("num_limbs", LEVELS)
    def test_mod_up_equals_per_digit_calls(self, keyed, num_limbs, ntt):
        ctx, switcher, _, _, _ = keyed
        poly = ctx.sample_uniform(ctx.basis_at_level(num_limbs), ntt=ntt)
        raised = RnsBasis(poly.basis.primes + ctx.p_basis.primes)
        digits = switcher.decompose(poly)
        batched = switcher.mod_up(digits, raised)
        assert len(batched) == len(digits)
        for digit, out in zip(digits, batched):
            (single,) = switcher.mod_up([digit], raised)
            assert out == single
            assert np.array_equal(out.limbs, mod_up_reference(digit, raised))

    @pytest.mark.parametrize("num_limbs", LEVELS)
    def test_mod_down_pair_equals_single_calls(self, keyed, num_limbs):
        ctx, switcher, _, _, _ = keyed
        q_basis = ctx.basis_at_level(num_limbs)
        raised = RnsBasis(q_basis.primes + ctx.p_basis.primes)
        pair = [ctx.sample_uniform(raised), ctx.sample_uniform(raised)]
        batched = switcher.mod_down(pair, q_basis)
        for poly, out in zip(pair, batched):
            (single,) = switcher.mod_down([poly], q_basis)
            assert out == single
            expected = mod_down_reference(poly.limbs, q_basis, ctx.p_basis)
            assert np.array_equal(out.limbs, expected)

    @pytest.mark.parametrize("num_limbs", LEVELS)
    def test_switch_hoisted(self, keyed, num_limbs):
        ctx, switcher, _, g, rotation = keyed
        poly = ctx.sample_uniform(ctx.basis_at_level(num_limbs))
        raised = switcher.hoisted_decompose(poly)
        u0, u1 = switcher.switch_hoisted(raised, g, rotation, poly.basis)
        expected = switch_reference(ctx, poly, rotation, galois_element=g)
        assert np.array_equal(u0.limbs, expected[0])
        assert np.array_equal(u1.limbs, expected[1])


# ----------------------------------------------------------------------
# Automorphisms
# ----------------------------------------------------------------------


class TestNttFormAutomorphism:
    @pytest.mark.parametrize("n", [16, 64])
    def test_every_galois_element(self, n, rng):
        basis = RnsBasis(generate_prime_chain(3, 31, n))
        limbs = np.stack([rng.integers(0, q, n) for q in basis.primes])
        poly = RnsPolynomial(n, basis, limbs, is_ntt=True)
        assert conjugation_element(n) == 2 * n - 1
        for g in range(1, 2 * n, 2):
            image = poly.automorphism(g)
            assert image.is_ntt
            expected = ntt_automorphism_reference(limbs, basis.primes, g)
            assert np.array_equal(image.limbs, expected), g

    @pytest.mark.parametrize("n", [16, 64])
    def test_coefficient_form_is_the_walk(self, n, rng):
        basis = RnsBasis(generate_prime_chain(3, 31, n))
        limbs = np.stack([rng.integers(0, q, n) for q in basis.primes])
        poly = RnsPolynomial(n, basis, limbs, is_ntt=False)
        for g in range(1, 2 * n, 2):
            image = poly.automorphism(g)
            assert not image.is_ntt
            expected = automorphism_walk(limbs, basis.primes, g)
            assert np.array_equal(image.limbs, expected), g

    def test_negative_and_wrapped_elements(self, rng):
        n = 16
        basis = RnsBasis(generate_prime_chain(2, 31, n))
        limbs = np.stack([rng.integers(0, q, n) for q in basis.primes])
        poly = RnsPolynomial(n, basis, limbs, is_ntt=True)
        assert poly.automorphism(-1) == poly.automorphism(2 * n - 1)
        assert poly.automorphism(5 + 2 * n) == poly.automorphism(5)
        with pytest.raises(ValueError):
            poly.automorphism(4)


# ----------------------------------------------------------------------
# Stacked transforms and rescale
# ----------------------------------------------------------------------


class TestStackedTransforms:
    def test_batch_axis_equals_one_call_per_matrix(self, rng):
        primes = generate_prime_chain(4, 31, 64)
        ctx = NttContext(64, primes)
        stack = np.stack(
            [np.stack([rng.integers(0, q, 64) for q in primes]) for _ in range(3)]
        )
        for transform in (ctx.forward, ctx.inverse):
            out = transform(stack)
            assert out.shape == stack.shape
            for matrix, row in zip(stack, out):
                assert np.array_equal(row, transform(matrix))

    def test_repeated_primes_equal_one_prime_contexts(self, rng):
        primes = generate_prime_chain(2, 31, 64)
        repeated = primes + primes[::-1] + primes
        limbs = np.stack([rng.integers(0, q, 64) for q in repeated])
        out = NttContext(64, repeated).forward(limbs)
        for row, q, limb in zip(out, repeated, limbs):
            assert np.array_equal(row, NttContext(64, q).forward(limb))

    def test_wrong_shape_rejected(self):
        ctx = NttContext(64, generate_prime_chain(2, 31, 64))
        with pytest.raises(ValueError):
            ctx.forward(np.zeros((2, 3, 64), dtype=np.int64))

    @pytest.mark.parametrize("num_limbs", [7, 2])
    def test_rescale_equals_per_polynomial_reference(self, keyed, num_limbs):
        ctx = keyed[0]
        basis = ctx.basis_at_level(num_limbs)
        ct = Ciphertext(
            ctx.sample_uniform(basis), ctx.sample_uniform(basis), 2.0**24, 32
        )
        out = Evaluator(ctx).rescale(ct)
        n = ct.ring_degree
        q_last = basis.primes[-1]
        remaining = basis.primes[:-1]
        q = np.array(remaining, dtype=np.int64)[:, None]
        inv = np.array([pow(q_last % qi, -1, qi) for qi in remaining])[:, None]
        for poly, image in ((ct.c0, out.c0), (ct.c1, out.c1)):
            last = get_ntt_context(n, q_last).inverse(poly.limbs[-1])
            centered = np.where(last > q_last // 2, last - q_last, last)
            lifted = get_ntt_context(n, remaining).forward(
                np.tile(centered, (len(remaining), 1))
            )
            expected = (poly.limbs[:-1] - lifted) % q * inv % q
            assert image.basis.primes == remaining
            assert np.array_equal(image.limbs, expected)


# ----------------------------------------------------------------------
# Row conservation
# ----------------------------------------------------------------------

# NTT calls and limb rows of one bootstrap at the tier-1 parameters, on
# the ciphertext path: every NTT outside ``CkksEncoder.encode``.
FORWARD_CALLS, FORWARD_ROWS = 189, 6305
INVERSE_CALLS, INVERSE_ROWS = 187, 1689
# When every NTT-form automorphism ran an inverse and a forward NTT over
# its limbs, and ModUp, ModDown and rescale made one call per digit or
# per polynomial, the same ciphertext path transformed 7,241 forward
# rows and 2,625 inverse rows.
UNBATCHED_FORWARD_ROWS, UNBATCHED_INVERSE_ROWS = 7241, 2625
# Forward NTT calls and rows inside ``encode`` (which runs no inverse).
# The first bootstrap encodes the 64 BSGS-rotated diagonals of its two
# linear transforms; constants are encoded without a transform, and a
# second bootstrap by the same ``Bootstrapper`` reuses every diagonal.
# When every plaintext, constants included, went through ``encode`` on
# every bootstrap, each bootstrap made 172 calls over 2,316 rows here.
FIRST_ENCODE_FORWARD = [64, 896]
WARM_ENCODE_FORWARD = [0, 0]


def test_one_bootstrap_transforms_every_row_once(monkeypatch, rng):
    """Batching merges calls but skips no rows: the only ciphertext rows
    that left the count are the NTT-form automorphisms', now
    permutations.  Plaintexts are encoded once per ``Bootstrapper``."""
    scheme = CkksScheme(
        CkksParams(
            ring_degree=64,
            num_limbs=19,
            scale_bits=25,
            dnum=4,
            hamming_weight=8,
            first_prime_bits=30,
            seed=7,
            num_extension_limbs=8,
        )
    )
    boot = Bootstrapper(scheme, BootstrapConfig(eval_mod_degree=63, modulus_range=8))
    z = rng.uniform(-0.5, 0.5, 32)
    ct = scheme.evaluator.mod_down_to(scheme.encrypt(z), 1)

    counts = {}
    encoding = []  # one entry per ``encode`` frame on the stack

    def counted(name):
        transform = getattr(NttContext, name)

        def wrapper(self, x):
            tally = counts["encode" if encoding else name]
            tally[0] += 1
            tally[1] += np.size(x) // self.ring_degree
            return transform(self, x)

        return wrapper

    encode = CkksEncoder.encode

    def counted_encode(self, *args, **kwargs):
        encoding.append(True)
        try:
            return encode(self, *args, **kwargs)
        finally:
            encoding.pop()

    automorphism = RnsPolynomial.automorphism

    def counted_automorphism(self, g):
        if self.is_ntt:
            counts["automorphism"] += len(self.basis)
        return automorphism(self, g)

    monkeypatch.setattr(NttContext, "forward", counted("forward"))
    monkeypatch.setattr(NttContext, "inverse", counted("inverse"))
    monkeypatch.setattr(CkksEncoder, "encode", counted_encode)
    monkeypatch.setattr(RnsPolynomial, "automorphism", counted_automorphism)
    runs = []
    for _ in range(2):
        counts.update(forward=[0, 0], inverse=[0, 0], encode=[0, 0], automorphism=0)
        out = boot.bootstrap(ct)
        runs.append((out, dict(counts)))
    monkeypatch.undo()

    (first, cold), (second, warm) = runs
    for tally in (cold, warm):
        assert tally["forward"] == [FORWARD_CALLS, FORWARD_ROWS]
        assert tally["inverse"] == [INVERSE_CALLS, INVERSE_ROWS]
        assert FORWARD_ROWS + tally["automorphism"] == UNBATCHED_FORWARD_ROWS
        assert INVERSE_ROWS + tally["automorphism"] == UNBATCHED_INVERSE_ROWS
    assert cold["encode"] == FIRST_ENCODE_FORWARD
    assert warm["encode"] == WARM_ENCODE_FORWARD
    assert first.c0 == second.c0 and first.c1 == second.c1
    assert np.array_equal(scheme.decrypt(first), scheme.decrypt(second))
    assert np.max(np.abs(scheme.decrypt(first) - z)) < 0.05
