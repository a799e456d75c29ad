"""Known-answer tests for the plaintexts the bootstrap encodes.

* ``CkksEncoder.encode_constant`` against ``encode`` of the same
  constant slot vector, limb for limb, on the tier-1 bootstrap chain:
  a constant slot vector is the constant polynomial ``round(value *
  scale)``, whose NTT is that integer in every evaluation.
* ``LinearTransform.apply`` encodes its BSGS-rotated diagonals on the
  first call at a basis and reuses them afterwards, with outputs equal
  to a transform that encodes afresh.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe import CkksContext, CkksEncoder, CkksParams
from repro.fhe.bootstrap import LinearTransform

# The tier-1 bootstrap parameters: 19 limbs of 25 bits over a 30-bit q0.
PARAMS = CkksParams(
    ring_degree=64,
    num_limbs=19,
    scale_bits=25,
    dnum=4,
    hamming_weight=8,
    first_prime_bits=30,
    seed=7,
    num_extension_limbs=8,
)
VALUES = [-3.75, -1.0, -0.3, 0.0, 1e-3, 0.5, 1.0, 2.718281828459045]


@pytest.fixture(scope="module")
def encoder():
    return CkksEncoder(CkksContext(PARAMS))


def scales(basis):
    """From 2^20 up to the prime a trailing rescale would drop, plus an
    off-power scale such as ``ScaleAligner.match`` picks."""
    q_drop = float(basis.primes[-1])
    return [2.0**20, 2.0**25, q_drop, 0.75 * q_drop]


def outcome(encode, *args, **kwargs):
    """The plaintext an encode returns, or the text of its ValueError."""
    try:
        return encode(*args, **kwargs)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("num_slots", [1, 4, 32])
@pytest.mark.parametrize("num_limbs", [1, 2, 7, 19])
def test_encode_constant_equals_encode(encoder, num_limbs, num_slots):
    """On one limb, values of 0.5 and more overflow at the larger scales:
    both encodes must then raise the same error."""
    basis = encoder.context.basis_at_level(num_limbs)
    encoded = 0
    for scale in scales(basis):
        for value in VALUES:
            got = outcome(encoder.encode_constant, value, scale, basis, num_slots)
            want = outcome(
                encoder.encode,
                np.full(num_slots, value, dtype=np.complex128),
                scale=scale,
                basis=basis,
                num_slots=num_slots,
            )
            if isinstance(want, str):
                assert got == want, (scale, value)
                continue
            encoded += 1
            assert got.poly == want.poly, (scale, value)
            assert got.poly.is_ntt
            assert got.scale == want.scale
            assert got.num_slots == want.num_slots
    assert encoded >= len(VALUES) * 2


@pytest.mark.parametrize("value", [32.0, -32.0, 1e6])
def test_encode_constant_overflow_raises_like_encode(encoder, value):
    basis = encoder.context.basis_at_level(1)
    with pytest.raises(ValueError) as want:
        encoder.encode(np.full(4, value), scale=2.0**25, basis=basis, num_slots=4)
    with pytest.raises(ValueError) as got:
        encoder.encode_constant(value, 2.0**25, basis, 4)
    assert str(got.value) == str(want.value)
    assert "overflow the modulus" in str(got.value)


@pytest.mark.parametrize("num_slots", [3, 64])
def test_encode_constant_rejects_bad_slot_counts(encoder, num_slots):
    basis = encoder.context.basis_at_level(2)
    with pytest.raises(ValueError):
        encoder.encode_constant(1.0, 2.0**25, basis, num_slots)


def test_linear_transform_encodes_each_basis_once(deep_scheme, rng, monkeypatch):
    n = deep_scheme.params.ring_degree // 2
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    lt = LinearTransform(m, n, deep_scheme.encoder)
    deep_scheme.add_rotation_keys(sorted(lt.required_rotations()))
    ev = deep_scheme.evaluator
    ct = deep_scheme.encrypt(rng.normal(size=n))
    lower = ev.mod_down_to(ct, ct.level_count - 2)
    # A transform that has cached nothing, for reference outputs.
    fresh = [
        LinearTransform(m, n, deep_scheme.encoder).apply(c, ev) for c in (ct, lower)
    ]

    encodes = []
    encode = CkksEncoder.encode

    def counted(self, *args, **kwargs):
        encodes.append(kwargs["basis"])
        return encode(self, *args, **kwargs)

    monkeypatch.setattr(CkksEncoder, "encode", counted)
    outs = [lt.apply(c, ev) for c in (ct, ct, lower, lower)]
    monkeypatch.undo()

    diagonals = len(lt.diagonals)
    assert len(encodes) == 2 * diagonals
    assert set(encodes[:diagonals]) == {ct.c0.basis}
    assert set(encodes[diagonals:]) == {lower.c0.basis}
    for out, want in zip(outs, [fresh[0], fresh[0], fresh[1], fresh[1]]):
        assert out.c0 == want.c0 and out.c1 == want.c1
        assert out.scale == want.scale
    want = m @ deep_scheme.decrypt(ct)
    assert np.max(np.abs(deep_scheme.decrypt(outs[1]) - want)) < 5e-3
