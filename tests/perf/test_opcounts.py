"""Tests for the device-independent operation counting."""

import dataclasses
import math

import pytest

from repro.core.scheduler import TaskGraph
from repro.experiments import table7_bootstrap, table8_lr
from repro.perf import (
    AnalyticDevice,
    BootstrapProfile,
    OpCounter,
    PrimitiveCounts,
    amortized_mult_per_slot,
    bts2_spec,
    f1_spec,
    gpu1_spec,
    gpu2_spec,
    heax_spec,
    lattigo_cpu_spec,
)

BASELINE_SPECS = (lattigo_cpu_spec, gpu1_spec, gpu2_spec, f1_spec, bts2_spec)


def parameter_points():
    """(ring degree, limbs, dnum) of each ``DeviceSpec`` in
    ``perf/devices.py`` (HEAX included) and of the ``counter`` fixture."""
    points = {"test": (1 << 16, 24, 3)}
    for factory in BASELINE_SPECS + (heax_spec,):
        spec = factory()
        points[spec.name] = (spec.ring_degree, spec.num_limbs, spec.dnum)
    return points


PARAMETER_POINTS = parameter_points()


@pytest.fixture(scope="module")
def counter():
    return OpCounter(ring_degree=1 << 16, num_limbs=24, dnum=3)


@pytest.fixture(params=sorted(PARAMETER_POINTS))
def point_counter(request):
    ring_degree, num_limbs, dnum = PARAMETER_POINTS[request.param]
    return OpCounter(ring_degree=ring_degree, num_limbs=num_limbs, dnum=dnum)


# ----------------------------------------------------------------------
# Reference walks: the digit-by-digit key switch and the loop-by-loop
# bootstrap and LR iteration, one PrimitiveCounts addition per term and
# no memo.  The counter under test must match them field for field.
# ----------------------------------------------------------------------


def reference_keyswitch(c, lvl, hoisted=False):
    n = c.ring_degree
    k = c.num_extension_limbs
    raised = lvl + k
    digits = []
    remaining = lvl
    while remaining > 0:
        digits.append(min(c.alpha, remaining))
        remaining -= c.alpha
    counts = PrimitiveCounts()
    for d in digits:
        new_limbs = raised - d
        if not hoisted:
            # iNTT of the digit, BasisConvert, NTT of the new limbs.
            counts += c.ntt(d)
            counts += PrimitiveCounts(
                modmults=d * n + new_limbs * d * n,
                modadds=new_limbs * d * n,
            )
            counts += c.ntt(new_limbs)
        # KSKIP.
        counts += PrimitiveCounts(
            modmults=2 * raised * n,
            modadds=2 * raised * n,
            hbm_key_bytes=2 * raised * c.limb_bytes,
        )
    # ModDown, once per polynomial.
    for _poly in range(2):
        counts += c.ntt(k)
        counts += PrimitiveCounts(
            modmults=k * n + lvl * k * n + lvl * n,
            modadds=lvl * k * n + lvl * n,
        )
        counts += c.ntt(lvl)
    return counts


def reference_rotate(c, lvl, hoisted=False):
    automorph = PrimitiveCounts(automorph_elems=2 * lvl * c.ring_degree)
    return reference_keyswitch(c, lvl, hoisted) + automorph


def reference_multiply(c, lvl):
    n = c.ring_degree
    tensor = PrimitiveCounts(modmults=4 * lvl * n, modadds=3 * lvl * n)
    return tensor + reference_keyswitch(c, lvl)


def reference_rescale(c, lvl):
    n = c.ring_degree
    return c.ntt(2 * lvl) + PrimitiveCounts(
        modmults=2 * (lvl - 1) * n,
        modadds=2 * (lvl - 1) * n,
    )


def reference_bootstrap(
    c,
    fft_iter=4,
    slots=None,
    eval_mod_ct_mults=20,
    eval_mod_const_mults=25,
):
    n = c.ring_degree
    slots = slots if slots is not None else n // 2
    log_slots = max(int(math.log2(slots)), 1)
    fully_packed = slots == n // 2
    level = c.num_limbs
    counts = PrimitiveCounts()
    rotations = 0
    ct_mults = 0

    counts += c.ntt(2 * (1 + level))

    radix_bits = math.ceil(log_slots / fft_iter)
    diagonals = (1 << radix_bits) + 1

    def linear_transform(lvl):
        n1 = 1 << max(0, round(math.log2(diagonals) / 2))
        n2 = math.ceil(diagonals / n1)
        lt = PrimitiveCounts()
        rots = 0
        for idx in range(max(n1 - 1, 0)):
            lt += reference_rotate(c, lvl, hoisted=idx > 0)
            rots += 1
        for _ in range(max(n2 - 1, 0)):
            lt += reference_rotate(c, lvl)
            rots += 1
        lt += PrimitiveCounts(
            modmults=diagonals * 2 * lvl * n,
            modadds=diagonals * 2 * lvl * n,
        )
        return lt + reference_rescale(c, lvl), rots

    for _ in range(fft_iter):
        lt, rots = linear_transform(level)
        counts += lt
        rotations += rots
        level -= 1
    counts += reference_rotate(c, level)
    rotations += 1

    branches = 2 if fully_packed else 1
    depth = c.eval_mod_depth
    base = eval_mod_ct_mults // depth
    extra = eval_mod_ct_mults - base * depth
    for _branch in range(branches):
        lvl = level
        for step in range(depth):
            here = base + (1 if step < extra else 0)
            for _ in range(here):
                counts += reference_multiply(c, lvl) + reference_rescale(c, lvl)
                ct_mults += 1
            lvl -= 1
        counts += PrimitiveCounts(modmults=eval_mod_const_mults * 2 * level * n)
    level -= depth

    for _ in range(fft_iter):
        lt, rots = linear_transform(level)
        counts += lt
        rotations += rots
        level -= 1

    limb_ntts = counts.ntt_butterflies // ((n // 2) * c.log_degree)
    return BootstrapProfile(
        counts=counts,
        rotations=rotations,
        ct_mults=ct_mults,
        limb_ntts=limb_ntts,
        levels_after=max(level - 1, 0),
        slots=slots,
    )


def reference_lr_iteration(c, num_ciphertexts=1024, slots=256, update_level=6):
    counts = PrimitiveCounts()
    per_ct = c.multiply_plain(update_level).scaled(2) + c.add(update_level).scaled(3)
    counts += per_ct.scaled(num_ciphertexts)
    first = True
    for _ in range(max(int(math.log2(slots)), 1)):
        counts += reference_rotate(c, update_level, hoisted=not first)
        counts += c.add(update_level)
        first = False
    for _ in range(3):
        counts += reference_multiply(c, update_level)
        counts += reference_rescale(c, update_level)
    counts += reference_multiply(c, update_level) + c.add(update_level)
    return counts


def reference_device(spec):
    """(sustained mults/s, amortized us) from the reference walks."""
    c = OpCounter(spec.ring_degree, spec.num_limbs, spec.dnum)
    profile = reference_bootstrap(c, fft_iter=spec.fft_iter, slots=spec.boot_slots)
    pairs = [
        reference_multiply(c, level) + reference_rescale(c, level)
        for level in range(profile.levels_after + 1, 1, -1)
    ]
    counts = profile.counts
    for pair in pairs:
        counts = counts + pair
    levels = max(profile.levels_after, 1)
    anchor_s = spec.published["amortized_mult_us"] * 1e-6
    target_s = anchor_s * levels * spec.boot_slots
    sustained = counts.mult_equivalents / max(target_s, 1e-12)

    def seconds(work):
        compute = work.mult_equivalents / sustained
        return max(compute, work.total_bytes / spec.mem_bw_bytes)

    mult_s = [seconds(pair) for pair in pairs]
    boot_s = seconds(profile.counts)
    return sustained, amortized_mult_per_slot(boot_s, mult_s, spec.boot_slots) * 1e6


class TestReferenceWalks:
    """Each count equals its reference walk at every parameter point."""

    def test_per_op_counts(self, point_counter):
        c = point_counter
        for lvl in range(1, c.num_limbs + 1):
            for hoisted in (False, True):
                ks = reference_keyswitch(c, lvl, hoisted)
                rotate = reference_rotate(c, lvl, hoisted)
                assert c.keyswitch(lvl, hoisted=hoisted) == ks
                assert c.rotate(lvl, hoisted=hoisted) == rotate
            assert c.multiply(lvl) == reference_multiply(c, lvl)
            assert c.rescale(lvl) == reference_rescale(c, lvl)
        top = c.num_limbs
        assert c.keyswitch() == reference_keyswitch(c, top)
        assert c.rotate() == reference_rotate(c, top)
        assert c.multiply() == reference_multiply(c, top)
        assert c.rescale() == reference_rescale(c, top)

    @pytest.mark.parametrize("fft_iter", [1, 2, 3, 4, 5])
    def test_bootstrap(self, point_counter, fft_iter):
        c = point_counter
        for slots in (1, 256, c.ring_degree // 2):
            profile = c.bootstrap(fft_iter=fft_iter, slots=slots)
            expected = reference_bootstrap(c, fft_iter=fft_iter, slots=slots)
            assert profile == expected

    def test_bootstrap_evalmod_split(self, point_counter):
        """Uneven EvalMod splits and the default (fully-packed) slots."""
        c = point_counter
        for ct_mults, const_mults in ((7, 3), (20, 25), (31, 0)):
            profile = c.bootstrap(
                fft_iter=2,
                eval_mod_ct_mults=ct_mults,
                eval_mod_const_mults=const_mults,
            )
            expected = reference_bootstrap(
                c,
                fft_iter=2,
                eval_mod_ct_mults=ct_mults,
                eval_mod_const_mults=const_mults,
            )
            assert profile == expected

    def test_lr_iteration(self, point_counter):
        c = point_counter
        assert c.lr_iteration() == reference_lr_iteration(c)
        small = dict(num_ciphertexts=8, slots=1 << 10, update_level=3)
        assert c.lr_iteration(**small) == reference_lr_iteration(c, **small)

    @pytest.mark.parametrize("factory", BASELINE_SPECS)
    def test_device_calibration(self, factory):
        spec = factory()
        device = AnalyticDevice(spec)
        sustained, amortized_us = reference_device(spec)
        assert device.sustained_mults_per_sec == sustained
        assert device.amortized_mult_us() == amortized_us


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
        low = counter.multiply(8).mult_equivalents
        assert low < counter.multiply(24).mult_equivalents

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

    def test_per_op_memo(self):
        counter = OpCounter(ring_degree=1 << 16, num_limbs=24, dnum=3)
        for lvl in (1, 10, 24):
            for hoisted in (False, True):
                rotate = counter.rotate(lvl, hoisted=hoisted)
                assert counter.rotate(lvl, hoisted=hoisted) is rotate
            assert counter.multiply(lvl) is counter.multiply(lvl)
            assert counter.rescale(lvl) is counter.rescale(lvl)
        assert counter.rotate(10) != counter.rotate(10, hoisted=True)
        assert counter.rotate() is counter.rotate(24)
        assert counter.multiply() is counter.multiply(24)
        assert counter.rescale() is counter.rescale(24)

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
        assert sparse.counts.mult_equivalents < full.counts.mult_equivalents
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


class TestTablePricingCounts:
    """Known-answer work counts of one Table 7 + Table 8 run."""

    def test_additions_and_schedules(self, monkeypatch):
        calls = {"add": 0, "schedule": 0}
        add = PrimitiveCounts.__add__
        schedule = TaskGraph.schedule

        def counted_add(self, other):
            calls["add"] += 1
            return add(self, other)

        def counted_schedule(self, *args, **kwargs):
            calls["schedule"] += 1
            return schedule(self, *args, **kwargs)

        monkeypatch.setattr(PrimitiveCounts, "__add__", counted_add)
        monkeypatch.setattr(TaskGraph, "schedule", counted_schedule)
        table7_bootstrap.run()
        table8_lr.run()
        # Adding per rotation in the bootstrap walk reads 11,283
        # additions; a second cold FAB model in Table 8, 69 schedules.
        assert calls == {"add": 1616, "schedule": 50}
