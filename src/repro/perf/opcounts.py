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

Each :class:`OpCounter` computes every distinct quantity once.  The key
switch is counted in closed form (its six totals summed as integers
over the digits, one :class:`PrimitiveCounts` built at the end), and
``keyswitch``, ``rotate``, ``multiply`` and ``rescale`` are memoized
per ``(kind, level, hoisted)`` in one memo on the counter.  A bootstrap
is not memoized (a table run asks each counter for it about once); it
prices its repeated identical terms (the hoisted baby-step rotations,
the giant steps, the multiply+rescale pairs of an EvalMod step) as one
``scaled`` term.  Every count is a Python int, so the regrouped sums
equal the term-by-term walks exactly.  Memoized values are shared
between callers, which is safe because :class:`PrimitiveCounts` is
frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class PrimitiveCounts:
    """Scalar-operation and traffic totals for one workload (frozen:
    :class:`OpCounter` hands out shared memoized values)."""

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
            self.hbm_ct_bytes + other.hbm_ct_bytes,
        )

    def scaled(self, factor: int) -> "PrimitiveCounts":
        """The counts of ``factor`` repetitions."""
        return PrimitiveCounts(
            self.modmults * factor,
            self.modadds * factor,
            self.ntt_butterflies * factor,
            self.automorph_elems * factor,
            self.hbm_key_bytes * factor,
            self.hbm_ct_bytes * factor,
        )

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

    def __init__(
        self,
        ring_degree: int = 1 << 16,
        num_limbs: int = 24,
        dnum: int = 3,
        limb_bits: int = 54,
        num_extension_limbs: Optional[int] = None,
        eval_mod_depth: int = 9,
    ):
        self.ring_degree = ring_degree
        self.num_limbs = num_limbs
        self.dnum = dnum
        self.limb_bits = limb_bits
        self.alpha = (num_limbs + dnum - 1) // dnum
        if num_extension_limbs is None:
            num_extension_limbs = self.alpha
        self.num_extension_limbs = num_extension_limbs
        self.eval_mod_depth = eval_mod_depth
        self.log_degree = ring_degree.bit_length() - 1
        self._memo: Dict[Tuple[str, int, bool], PrimitiveCounts] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @property
    def limb_bytes(self) -> int:
        return self.ring_degree * self.limb_bits // 8

    def _level(self, level: Optional[int]) -> int:
        return level if level is not None else self.num_limbs

    def _memoized(
        self,
        key: Tuple[str, int, bool],
        count: Callable[..., PrimitiveCounts],
        *args: int,
    ) -> PrimitiveCounts:
        """``count(*args)``, computed on the first call for ``key``."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = count(*args)
        return value

    def ntt(self, limbs: int = 1) -> PrimitiveCounts:
        """``limbs`` limb transforms: N/2 * log N butterflies each."""
        butterflies = limbs * (self.ring_degree // 2) * self.log_degree
        return PrimitiveCounts(ntt_butterflies=butterflies, modadds=2 * butterflies)

    # ------------------------------------------------------------------
    # Basic operations
    # ------------------------------------------------------------------

    def add(self, level: Optional[int] = None) -> PrimitiveCounts:
        lvl = self._level(level)
        return PrimitiveCounts(modadds=2 * lvl * self.ring_degree)

    def multiply_plain(self, level: Optional[int] = None) -> PrimitiveCounts:
        lvl = self._level(level)
        return PrimitiveCounts(modmults=2 * lvl * self.ring_degree)

    def keyswitch(
        self, level: Optional[int] = None, hoisted: bool = False
    ) -> PrimitiveCounts:
        """Hybrid key switch with the smart-scheduling optimization."""
        lvl = self._level(level)
        key = ("keyswitch", lvl, hoisted)
        return self._memoized(key, self._count_keyswitch, lvl, hoisted)

    def _count_keyswitch(self, lvl: int, hoisted: bool) -> PrimitiveCounts:
        n = self.ring_degree
        k = self.num_extension_limbs
        raised = lvl + k
        digits = [min(self.alpha, lvl - first) for first in range(0, lvl, self.alpha)]
        # ModDown, once per polynomial: NTTs of the k extension limbs
        # and of the lvl limbs, and the conversion back.
        ntt_limbs = 2 * (k + lvl)
        modmults = 2 * (k * n + lvl * k * n + lvl * n)
        modadds = 2 * (lvl * k * n + lvl * n)
        # KSKIP, per digit: the inner product with both raised key polys.
        modmults += len(digits) * 2 * raised * n
        modadds += len(digits) * 2 * raised * n
        if not hoisted:
            # ModUp, per digit of d limbs: iNTT of the digit, BasisConvert
            # to the raised - d new limbs, NTT of those: raised limbs in all.
            converted = sum((raised - d) * d for d in digits)
            ntt_limbs += len(digits) * raised
            modmults += sum(digits) * n + converted * n
            modadds += converted * n
        butterflies = ntt_limbs * (n // 2) * self.log_degree
        return PrimitiveCounts(
            modmults=modmults,
            modadds=modadds + 2 * butterflies,
            ntt_butterflies=butterflies,
            hbm_key_bytes=len(digits) * 2 * raised * self.limb_bytes,
        )

    def multiply(self, level: Optional[int] = None) -> PrimitiveCounts:
        lvl = self._level(level)
        return self._memoized(("multiply", lvl, False), self._count_multiply, lvl)

    def _count_multiply(self, lvl: int) -> PrimitiveCounts:
        n = self.ring_degree
        tensor = PrimitiveCounts(modmults=4 * lvl * n, modadds=3 * lvl * n)
        return tensor + self.keyswitch(lvl)

    def rescale(self, level: Optional[int] = None) -> PrimitiveCounts:
        lvl = self._level(level)
        return self._memoized(("rescale", lvl, False), self._count_rescale, lvl)

    def _count_rescale(self, lvl: int) -> PrimitiveCounts:
        drop = 2 * (lvl - 1) * self.ring_degree
        return self.ntt(2 * lvl) + PrimitiveCounts(modmults=drop, modadds=drop)

    def rotate(
        self, level: Optional[int] = None, hoisted: bool = False
    ) -> PrimitiveCounts:
        lvl = self._level(level)
        key = ("rotate", lvl, hoisted)
        return self._memoized(key, self._count_rotate, lvl, hoisted)

    def _count_rotate(self, lvl: int, hoisted: bool) -> PrimitiveCounts:
        automorph = PrimitiveCounts(automorph_elems=2 * lvl * self.ring_degree)
        return self.keyswitch(lvl, hoisted) + automorph

    # ------------------------------------------------------------------
    # Bootstrapping
    # ------------------------------------------------------------------

    def bootstrap(
        self,
        fft_iter: int = 4,
        slots: Optional[int] = None,
        eval_mod_ct_mults: int = 20,
        eval_mod_const_mults: int = 25,
    ) -> BootstrapProfile:
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
        rotations = 0

        # ModRaise.
        counts = self.ntt(2 * (1 + level))

        radix_bits = math.ceil(log_slots / fft_iter)
        diagonals = (1 << radix_bits) + 1
        n1 = 1 << max(0, round(math.log2(diagonals) / 2))
        n2 = math.ceil(diagonals / n1)

        def linear_transform(lvl: int) -> PrimitiveCounts:
            # BSGS: n1 - 1 baby steps (the first full, the rest hoisted)
            # and n2 - 1 giant steps.
            lt = self.rotate(lvl).scaled(n2 - 1)
            if n1 > 1:
                lt += self.rotate(lvl) + self.rotate(lvl, hoisted=True).scaled(n1 - 2)
            plain_mults = diagonals * 2 * lvl * n
            lt += PrimitiveCounts(modmults=plain_mults, modadds=plain_mults)
            return lt + self.rescale(lvl)

        lt_rotations = (n1 - 1) + (n2 - 1)

        # CoeffToSlot (+1 conjugation for the real/imag split).
        for _ in range(fft_iter):
            counts += linear_transform(level)
            rotations += lt_rotations
            level -= 1
        counts += self.rotate(level)
        rotations += 1

        # EvalMod: identical branches, each `here` multiply+rescale
        # pairs per step at a falling level.
        branches = 2 if fully_packed else 1
        depth = self.eval_mod_depth
        base = eval_mod_ct_mults // depth
        extra = eval_mod_ct_mults - base * depth
        branch = PrimitiveCounts(modmults=eval_mod_const_mults * 2 * level * n)
        branch_mults = 0
        for step in range(depth):
            here = base + (1 if step < extra else 0)
            lvl = level - step
            branch += (self.multiply(lvl) + self.rescale(lvl)).scaled(here)
            branch_mults += here
        counts += branch.scaled(branches)
        level -= depth

        # SlotToCoeff.
        for _ in range(fft_iter):
            counts += linear_transform(level)
            rotations += lt_rotations
            level -= 1

        limb_ntts = counts.ntt_butterflies // ((n // 2) * self.log_degree)
        return BootstrapProfile(
            counts=counts,
            rotations=rotations,
            ct_mults=branch_mults * branches,
            limb_ntts=limb_ntts,
            levels_after=max(level - 1, 0),
            slots=slots,
        )

    # ------------------------------------------------------------------
    # HELR logistic regression (Table 8 workload)
    # ------------------------------------------------------------------

    def lr_iteration(
        self, num_ciphertexts: int = 1024, slots: int = 256, update_level: int = 6
    ) -> PrimitiveCounts:
        """One HELR iteration over ``num_ciphertexts`` sparse ciphertexts.

        Per ciphertext: the gradient contribution (two plaintext
        multiplies, an inner-product rotation tree over the 196 packed
        features, and accumulations); per iteration: the degree-3
        polynomial sigmoid on the aggregate (3 ct multiplies + rescales)
        and the weight update, followed by one sparse bootstrap
        (counted separately via :meth:`bootstrap`).
        """
        lvl = update_level
        # Per-ciphertext gradient contribution (plaintext data x weights).
        per_ct = self.multiply_plain(lvl).scaled(2) + self.add(lvl).scaled(3)
        counts = per_ct.scaled(num_ciphertexts)
        # Inner-product rotation tree on the aggregate (196 features): the
        # first rotation full, the rest hoisted, an addition after each.
        rotations = max(int(math.log2(slots)), 1)
        hoisted = self.rotate(lvl, hoisted=True).scaled(rotations - 1)
        counts += self.rotate(lvl) + hoisted + self.add(lvl).scaled(rotations)
        # Degree-3 polynomial sigmoid + weight update.
        counts += (self.multiply(lvl) + self.rescale(lvl)).scaled(3)
        counts += self.multiply(lvl) + self.add(lvl)
        return counts
