"""Tests for the device-independent operation counting."""

import dataclasses

import pytest

from repro.perf import OpCounter, PrimitiveCounts


@pytest.fixture(scope="module")
def counter():
    return OpCounter(ring_degree=1 << 16, num_limbs=24, dnum=3)


class TestPrimitiveCounts:
    def test_addition(self):
        a = PrimitiveCounts(modmults=3, hbm_key_bytes=10)
        b = PrimitiveCounts(modmults=4, modadds=2)
        c = a + b
        assert c.modmults == 7
        assert c.modadds == 2
        assert c.hbm_key_bytes == 10

    def test_scaling(self):
        c = PrimitiveCounts(modmults=5, ntt_butterflies=2).scaled(3)
        assert c.modmults == 15
        assert c.ntt_butterflies == 6

    def test_mult_equivalents(self):
        c = PrimitiveCounts(modmults=5, ntt_butterflies=7)
        assert c.mult_equivalents == 12


class TestBasicCounts:
    def test_add(self, counter):
        assert counter.add(10).modadds == 2 * 10 * (1 << 16)

    def test_ntt_butterflies(self, counter):
        c = counter.ntt(1)
        assert c.ntt_butterflies == (1 << 15) * 16

    def test_multiply_includes_tensor_and_keyswitch(self, counter):
        mult = counter.multiply(24)
        ks = counter.keyswitch(24)
        n = 1 << 16
        assert mult.modmults == 4 * 24 * n + ks.modmults
        assert mult.hbm_key_bytes == ks.hbm_key_bytes

    def test_keyswitch_key_traffic(self, counter):
        """3 digit blocks x 2 polys x 32 raised limbs."""
        ks = counter.keyswitch(24)
        limb_bytes = (1 << 16) * 54 // 8
        assert ks.hbm_key_bytes == 3 * 2 * 32 * limb_bytes

    def test_hoisted_keyswitch_cheaper(self, counter):
        full = counter.keyswitch(24)
        hoisted = counter.keyswitch(24, hoisted=True)
        assert hoisted.mult_equivalents < full.mult_equivalents
        assert hoisted.hbm_key_bytes == full.hbm_key_bytes

    def test_counts_scale_with_level(self, counter):
        assert (counter.multiply(8).mult_equivalents
                < counter.multiply(24).mult_equivalents)

    def test_keyswitch_memo_per_counter(self):
        counter = OpCounter(ring_degree=1 << 16, num_limbs=24, dnum=3)
        hoisted = counter.keyswitch(10, hoisted=True)
        assert counter.keyswitch(10, hoisted=True) is hoisted
        assert counter.keyswitch(10) != hoisted
        assert counter.keyswitch() is counter.keyswitch(24)
        fresh = OpCounter(ring_degree=1 << 16, num_limbs=24, dnum=3)
        assert fresh.keyswitch(10, hoisted=True) == hoisted
        other = OpCounter(ring_degree=1 << 16, num_limbs=24, dnum=4)
        assert other.keyswitch(10) != counter.keyswitch(10)

    def test_shared_counts_are_frozen(self, counter):
        with pytest.raises(dataclasses.FrozenInstanceError):
            counter.keyswitch(3).modmults = 0


class TestBootstrapProfile:
    def test_levels_after(self, counter):
        profile = counter.bootstrap(fft_iter=4)
        assert profile.levels_after == 23 - 17

    def test_fft_iter_reduces_work_but_costs_levels(self, counter):
        p1 = counter.bootstrap(fft_iter=1)
        p4 = counter.bootstrap(fft_iter=4)
        assert p4.counts.mult_equivalents < p1.counts.mult_equivalents
        assert p4.levels_after < p1.levels_after

    def test_fft_iter_reduces_ntt_count(self, counter):
        """The Fig. 2 second series: NTT ops drop as fftIter rises."""
        ntts = [counter.bootstrap(fft_iter=f).limb_ntts for f in (1, 2, 4)]
        assert ntts[0] > ntts[1] > ntts[2]

    def test_sparse_bootstrap_fewer_ops(self, counter):
        full = counter.bootstrap(slots=1 << 15)
        sparse = counter.bootstrap(slots=256)
        assert sparse.counts.mult_equivalents \
            < full.counts.mult_equivalents
        # Sparse runs one EvalMod branch instead of two.
        assert sparse.ct_mults == full.ct_mults // 2

    def test_rotation_count_near_paper(self, counter):
        """~60 distinct rotation uses in fully-packed bootstrapping."""
        profile = counter.bootstrap(fft_iter=4)
        assert 40 <= profile.rotations <= 75


class TestLrIteration:
    def test_scales_with_batch(self, counter):
        small = counter.lr_iteration(num_ciphertexts=128)
        large = counter.lr_iteration(num_ciphertexts=1024)
        assert large.mult_equivalents > small.mult_equivalents

    def test_has_sigmoid_keyswitches(self, counter):
        c = counter.lr_iteration(num_ciphertexts=8)
        assert c.hbm_key_bytes > 0  # rotations + ct multiplies fetch keys
