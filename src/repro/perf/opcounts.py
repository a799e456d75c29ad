"""Primitive-operation counts for CKKS workloads.

Device-independent counting of modular multiplies, adds, NTT
butterflies and memory traffic for every CKKS operation, the full
bootstrapping pipeline, and one HELR logistic-regression iteration.
The counts feed the analytic baseline devices
(:class:`repro.perf.devices.AnalyticDevice`), on which the Table 7 and
8 drivers and ``examples/lr_training.py`` price them, so every baseline
is evaluated on identical workloads.  The FAB model does not read them:
it counts its own datapath in :mod:`repro.core` (e.g.
:mod:`repro.core.keyswitch_datapath`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class PrimitiveCounts:
    """Scalar-operation and traffic totals for one workload (frozen:
    :meth:`OpCounter.keyswitch` hands out shared memoized values)."""

    modmults: int = 0
    modadds: int = 0
    ntt_butterflies: int = 0
    automorph_elems: int = 0
    hbm_key_bytes: int = 0
    hbm_ct_bytes: int = 0

    def __add__(self, other: "PrimitiveCounts") -> "PrimitiveCounts":
        return PrimitiveCounts(
            self.modmults + other.modmults,
            self.modadds + other.modadds,
            self.ntt_butterflies + other.ntt_butterflies,
            self.automorph_elems + other.automorph_elems,
            self.hbm_key_bytes + other.hbm_key_bytes,
            self.hbm_ct_bytes + other.hbm_ct_bytes)

    def scaled(self, factor: int) -> "PrimitiveCounts":
        """The counts of ``factor`` repetitions."""
        return PrimitiveCounts(
            self.modmults * factor, self.modadds * factor,
            self.ntt_butterflies * factor, self.automorph_elems * factor,
            self.hbm_key_bytes * factor, self.hbm_ct_bytes * factor)

    @property
    def mult_equivalents(self) -> int:
        """Modular-multiply equivalents (butterfly = 1 multiply)."""
        return self.modmults + self.ntt_butterflies

    @property
    def total_bytes(self) -> int:
        return self.hbm_key_bytes + self.hbm_ct_bytes


@dataclass
class BootstrapProfile:
    """Counts plus pipeline metadata for one bootstrap."""

    counts: PrimitiveCounts
    rotations: int
    ct_mults: int
    limb_ntts: int
    levels_after: int
    slots: int


class OpCounter:
    """Counts primitive operations at a given CKKS parameter point."""

    def __init__(self, ring_degree: int = 1 << 16, num_limbs: int = 24,
                 dnum: int = 3, limb_bits: int = 54,
                 num_extension_limbs: Optional[int] = None,
                 eval_mod_depth: int = 9):
        self.ring_degree = ring_degree
        self.num_limbs = num_limbs
        self.dnum = dnum
        self.limb_bits = limb_bits
        self.alpha = (num_limbs + dnum - 1) // dnum
        self.num_extension_limbs = (num_extension_limbs
                                    if num_extension_limbs is not None
                                    else self.alpha)
        self.eval_mod_depth = eval_mod_depth
        self.log_degree = ring_degree.bit_length() - 1
        self._keyswitch_memo: Dict[Tuple[int, bool], PrimitiveCounts] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @property
    def limb_bytes(self) -> int:
        return self.ring_degree * self.limb_bits // 8

    def _level(self, level: Optional[int]) -> int:
        return level if level is not None else self.num_limbs

    def ntt(self, limbs: int = 1) -> PrimitiveCounts:
        """``limbs`` limb transforms: N/2 * log N butterflies each."""
        butterflies = limbs * (self.ring_degree // 2) * self.log_degree
        return PrimitiveCounts(ntt_butterflies=butterflies,
                               modadds=2 * butterflies)

    # ------------------------------------------------------------------
    # Basic operations
    # ------------------------------------------------------------------

    def add(self, level: Optional[int] = None) -> PrimitiveCounts:
        lvl = self._level(level)
        return PrimitiveCounts(modadds=2 * lvl * self.ring_degree)

    def multiply_plain(self, level: Optional[int] = None) -> PrimitiveCounts:
        lvl = self._level(level)
        return PrimitiveCounts(modmults=2 * lvl * self.ring_degree)

    def keyswitch(self, level: Optional[int] = None,
                  hoisted: bool = False) -> PrimitiveCounts:
        """Hybrid key switch with the smart-scheduling optimization
        (memoized per counter: it depends only on its arguments)."""
        lvl = self._level(level)
        memo = self._keyswitch_memo.get((lvl, hoisted))
        if memo is not None:
            return memo
        n = self.ring_degree
        k = self.num_extension_limbs
        raised = lvl + k
        digits = []
        remaining = lvl
        while remaining > 0:
            digits.append(min(self.alpha, remaining))
            remaining -= self.alpha
        counts = PrimitiveCounts()
        for d in digits:
            new_limbs = raised - d
            if not hoisted:
                counts += self.ntt(d)                     # iNTT digit
                counts += PrimitiveCounts(                # BasisConvert
                    modmults=d * n + new_limbs * d * n,
                    modadds=new_limbs * d * n)
                counts += self.ntt(new_limbs)             # NTT new limbs
            counts += PrimitiveCounts(                    # KSKIP
                modmults=2 * raised * n, modadds=2 * raised * n,
                hbm_key_bytes=2 * raised * self.limb_bytes)
        for _poly in range(2):                            # ModDown
            counts += self.ntt(k)
            counts += PrimitiveCounts(
                modmults=k * n + lvl * k * n + lvl * n,
                modadds=lvl * k * n + lvl * n)
            counts += self.ntt(lvl)
        self._keyswitch_memo[(lvl, hoisted)] = counts
        return counts

    def multiply(self, level: Optional[int] = None) -> PrimitiveCounts:
        lvl = self._level(level)
        n = self.ring_degree
        tensor = PrimitiveCounts(modmults=4 * lvl * n, modadds=3 * lvl * n)
        return tensor + self.keyswitch(lvl)

    def rescale(self, level: Optional[int] = None) -> PrimitiveCounts:
        lvl = self._level(level)
        n = self.ring_degree
        return self.ntt(2 * lvl) + PrimitiveCounts(
            modmults=2 * (lvl - 1) * n, modadds=2 * (lvl - 1) * n)

    def rotate(self, level: Optional[int] = None,
               hoisted: bool = False) -> PrimitiveCounts:
        lvl = self._level(level)
        return self.keyswitch(lvl, hoisted=hoisted) + PrimitiveCounts(
            automorph_elems=2 * lvl * self.ring_degree)

    # ------------------------------------------------------------------
    # Bootstrapping
    # ------------------------------------------------------------------

    def bootstrap(self, fft_iter: int = 4, slots: Optional[int] = None,
                  eval_mod_ct_mults: int = 20,
                  eval_mod_const_mults: int = 25) -> BootstrapProfile:
        """Counts for the full pipeline, tracking the level per stage.

        Sparse ciphertexts (slots < N/2) run a smaller homomorphic DFT
        and a single EvalMod branch (the standard sparse optimization);
        fully-packed ones run two EvalMod branches.
        """
        n = self.ring_degree
        slots = slots if slots is not None else n // 2
        log_slots = max(int(math.log2(slots)), 1)
        fully_packed = slots == n // 2
        level = self.num_limbs
        counts = PrimitiveCounts()
        rotations = 0
        ct_mults = 0

        # ModRaise.
        counts += self.ntt(2 * (1 + level))

        radix_bits = math.ceil(log_slots / fft_iter)
        diagonals = (1 << radix_bits) + 1

        def linear_transform(lvl: int) -> Tuple[PrimitiveCounts, int]:
            n1 = 1 << max(0, round(math.log2(diagonals) / 2))
            n2 = math.ceil(diagonals / n1)
            lt = PrimitiveCounts()
            rots = 0
            for idx in range(max(n1 - 1, 0)):
                lt += self.rotate(lvl, hoisted=idx > 0)
                rots += 1
            for _ in range(max(n2 - 1, 0)):
                lt += self.rotate(lvl)
                rots += 1
            lt += PrimitiveCounts(modmults=diagonals * 2 * lvl * n,
                                  modadds=diagonals * 2 * lvl * n)
            return lt + self.rescale(lvl), rots

        # CoeffToSlot (+1 conjugation for the real/imag split).
        for _ in range(fft_iter):
            lt, rots = linear_transform(level)
            counts += lt
            rotations += rots
            level -= 1
        counts += self.rotate(level)
        rotations += 1

        # EvalMod.
        branches = 2 if fully_packed else 1
        depth = self.eval_mod_depth
        base = eval_mod_ct_mults // depth
        extra = eval_mod_ct_mults - base * depth
        for _branch in range(branches):
            lvl = level
            for step in range(depth):
                here = base + (1 if step < extra else 0)
                for _ in range(here):
                    counts += self.multiply(lvl) + self.rescale(lvl)
                    ct_mults += 1
                lvl -= 1
            counts += PrimitiveCounts(
                modmults=eval_mod_const_mults * 2 * level * n)
        level -= depth

        # SlotToCoeff.
        for _ in range(fft_iter):
            lt, rots = linear_transform(level)
            counts += lt
            rotations += rots
            level -= 1

        butterflies = counts.ntt_butterflies
        limb_ntts = butterflies // ((n // 2) * self.log_degree)
        return BootstrapProfile(counts=counts, rotations=rotations,
                                ct_mults=ct_mults, limb_ntts=limb_ntts,
                                levels_after=max(level - 1, 0), slots=slots)

    # ------------------------------------------------------------------
    # HELR logistic regression (Table 8 workload)
    # ------------------------------------------------------------------

    def lr_iteration(self, num_ciphertexts: int = 1024,
                     slots: int = 256,
                     update_level: int = 6) -> PrimitiveCounts:
        """One HELR iteration over ``num_ciphertexts`` sparse ciphertexts.

        Per ciphertext: the gradient contribution (two plaintext
        multiplies, an inner-product rotation tree over the 196 packed
        features, and accumulations); per iteration: the degree-3
        polynomial sigmoid on the aggregate (3 ct multiplies + rescales)
        and the weight update, followed by one sparse bootstrap
        (counted separately via :meth:`bootstrap`).
        """
        counts = PrimitiveCounts()
        # Per-ciphertext gradient contribution (plaintext data x weights).
        per_ct = (self.multiply_plain(update_level).scaled(2)
                  + self.add(update_level).scaled(3))
        counts += per_ct.scaled(num_ciphertexts)
        # Inner-product rotation tree on the aggregate (196 features).
        rotations = max(int(math.log2(slots)), 1)
        first = True
        for _ in range(rotations):
            counts += self.rotate(update_level, hoisted=not first)
            counts += self.add(update_level)
            first = False
        # Degree-3 polynomial sigmoid + weight update.
        for _ in range(3):
            counts += self.multiply(update_level) + self.rescale(
                update_level)
        counts += self.multiply(update_level) + self.add(update_level)
        return counts
