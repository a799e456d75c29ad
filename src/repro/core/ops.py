"""Cycle models for every CKKS operation on FAB.

Each method returns an :class:`OpReport` with cycles, HBM traffic and a
breakdown; the bootstrap model walks the full pipeline (ModRaise,
fftIter-factored CoeffToSlot, EvalMod, SlotToCoeff) tracking the level
as limbs are consumed, which is what Tables 5–7 and Figures 1–2 of the
paper are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .hbm import HbmModel
from .keyswitch_datapath import KeySwitchDatapath
from .ntt_datapath import NttDatapath
from .params import FabConfig


@dataclass
class OpReport:
    """Cost summary for one homomorphic operation."""

    name: str
    cycles: int
    limb_ntts: int = 0
    modmults: int = 0
    hbm_bytes: int = 0
    breakdown: Dict[str, int] = field(default_factory=dict)

    def seconds(self, config: FabConfig) -> float:
        """Wall-clock seconds at the kernel frequency."""
        return config.cycles_to_seconds(self.cycles)

    def merged(self, other: "OpReport", name: str) -> "OpReport":
        """Serial composition of two reports."""
        breakdown = dict(self.breakdown)
        for key, val in other.breakdown.items():
            breakdown[key] = breakdown.get(key, 0) + val
        return OpReport(name, self.cycles + other.cycles,
                        self.limb_ntts + other.limb_ntts,
                        self.modmults + other.modmults,
                        self.hbm_bytes + other.hbm_bytes, breakdown)


@dataclass
class BootstrapReport:
    """Cost of one fully-packed bootstrap plus the derived metric."""

    cycles: int
    stage_cycles: Dict[str, int]
    limb_ntts: int
    rotations: int
    levels_after: int
    slots: int

    def seconds(self, config: FabConfig) -> float:
        return config.cycles_to_seconds(self.cycles)


class FabOpModel:
    """Operation-level performance model of a single FAB accelerator."""

    def __init__(self, config: Optional[FabConfig] = None):
        self.config = config or FabConfig()
        self.ntt = NttDatapath(self.config)
        self.hbm = HbmModel(self.config)
        self.keyswitch_datapath = KeySwitchDatapath(self.config)
        self._keyswitch_memo: Dict[Tuple[int, bool],
                                   Tuple[int, int, int, int]] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _level(self, level_limbs: Optional[int]) -> int:
        return (level_limbs if level_limbs is not None
                else self.config.fhe.num_limbs)

    def _ew(self, scalar_ops: int) -> int:
        """Element-wise cycles over the 256-lane array."""
        return math.ceil(scalar_ops / self.config.num_functional_units)

    def _overlap(self, cycles: int) -> int:
        """Apply the fine-grained pipelining factor to an NTT-heavy
        composite (see FabConfig.fine_grain_overlap)."""
        return math.ceil(cycles * self.config.fine_grain_overlap)

    # ------------------------------------------------------------------
    # Basic operations (Table 5)
    # ------------------------------------------------------------------

    def add(self, level_limbs: Optional[int] = None) -> OpReport:
        """Homomorphic addition: 2 * l * N modular adds."""
        level = self._level(level_limbs)
        n = self.config.fhe.ring_degree
        cycles = self._ew(2 * level * n) + self.config.mod_add_cycles
        return OpReport("add", cycles, breakdown={"elementwise": cycles})

    def multiply_plain(self, level_limbs: Optional[int] = None) -> OpReport:
        """Plaintext multiply: 2 * l * N modular multiplies."""
        level = self._level(level_limbs)
        n = self.config.fhe.ring_degree
        cycles = self._ew(2 * level * n) + self.config.mod_mult_cycles
        return OpReport("multiply_plain", cycles,
                        modmults=2 * level * n,
                        breakdown={"elementwise": cycles})

    def keyswitch(self, level_limbs: Optional[int] = None) -> OpReport:
        """Hybrid key switch via the modified datapath."""
        return self._keyswitch(level_limbs, hoisted=False)

    def keyswitch_hoisted(self, level_limbs: Optional[int] = None) -> OpReport:
        """Key switch sharing a hoisted ModUp (baby-step rotations)."""
        return self._keyswitch(level_limbs, hoisted=True)

    def _keyswitch(self, level_limbs: Optional[int],
                   hoisted: bool) -> OpReport:
        """Price a key switch by scheduling its datapath task graph, once
        per level and variant per model; the config is frozen, so the
        figures depend only on those.  A fresh report is built on every
        call because its breakdown dict is mutable."""
        level = self._level(level_limbs)
        figures = self._keyswitch_memo.get((level, hoisted))
        if figures is None:
            datapath = self.keyswitch_datapath
            report = (datapath.hoisted_report(level) if hoisted
                      else datapath.report(level))
            figures = (self._overlap(report.cycles), report.counts.limb_ntts,
                       report.counts.modmults,
                       report.counts.hbm_total_bytes)
            self._keyswitch_memo[(level, hoisted)] = figures
        cycles, limb_ntts, modmults, hbm_bytes = figures
        return OpReport("keyswitch_hoisted" if hoisted else "keyswitch",
                        cycles, limb_ntts=limb_ntts, modmults=modmults,
                        hbm_bytes=hbm_bytes, breakdown={"keyswitch": cycles})

    def multiply(self, level_limbs: Optional[int] = None) -> OpReport:
        """Ciphertext multiply: tensor product + relinearization."""
        level = self._level(level_limbs)
        n = self.config.fhe.ring_degree
        tensor_mults = 4 * level * n
        tensor_cycles = self._ew(tensor_mults) + self.config.mod_mult_cycles
        ks = self.keyswitch(level)
        fixup = self._ew(2 * level * n)  # add (u0, u1) into (d0, d1)
        cycles = tensor_cycles + ks.cycles + fixup
        return OpReport(
            "multiply", cycles, limb_ntts=ks.limb_ntts,
            modmults=tensor_mults + ks.modmults, hbm_bytes=ks.hbm_bytes,
            breakdown={"tensor": tensor_cycles, "keyswitch": ks.cycles,
                       "fixup": fixup})

    def rescale(self, level_limbs: Optional[int] = None) -> OpReport:
        """Rescale: per poly, 1 iNTT + (l-1) NTTs + element-wise fixup."""
        level = self._level(level_limbs)
        n = self.config.fhe.ring_degree
        ntts = 2 * level  # (1 iNTT + (l-1) NTT) per polynomial
        ntt_cycles = ntts * self.ntt.limb_cycles(n)
        fix = self._ew(2 * (level - 1) * n)  # fused sub+scale streams
        cycles = self._overlap(ntt_cycles + fix)
        return OpReport("rescale", cycles, limb_ntts=ntts,
                        modmults=2 * (level - 1) * n,
                        breakdown={"ntt": ntt_cycles, "fixup": fix})

    def rotate(self, level_limbs: Optional[int] = None) -> OpReport:
        """Rotation: automorph both polynomials + key switch."""
        level = self._level(level_limbs)
        n = self.config.fhe.ring_degree
        automorph = 2 * level * math.ceil(
            n / self.config.num_functional_units)
        ks = self.keyswitch(level)
        cycles = automorph + ks.cycles
        return OpReport("rotate", cycles, limb_ntts=ks.limb_ntts,
                        modmults=ks.modmults, hbm_bytes=ks.hbm_bytes,
                        breakdown={"automorph": automorph,
                                   "keyswitch": ks.cycles})

    def rotate_hoisted(self, level_limbs: Optional[int] = None) -> OpReport:
        """An additional rotation of an already-decomposed ciphertext."""
        level = self._level(level_limbs)
        n = self.config.fhe.ring_degree
        automorph = 2 * level * math.ceil(
            n / self.config.num_functional_units)
        ks = self.keyswitch_hoisted(level)
        cycles = automorph + ks.cycles
        return OpReport("rotate_hoisted", cycles, limb_ntts=ks.limb_ntts,
                        modmults=ks.modmults, hbm_bytes=ks.hbm_bytes,
                        breakdown={"automorph": automorph,
                                   "keyswitch": ks.cycles})

    def conjugate(self, level_limbs: Optional[int] = None) -> OpReport:
        """Conjugation costs the same as a rotation."""
        report = self.rotate(level_limbs)
        return OpReport("conjugate", report.cycles, report.limb_ntts,
                        report.modmults, report.hbm_bytes, report.breakdown)

    def ntt_limb(self) -> OpReport:
        """A single limb NTT (the Table 6 primitive)."""
        cycles = self.ntt.limb_cycles()
        return OpReport("ntt", cycles, limb_ntts=1,
                        breakdown={"ntt": cycles})

    def ntt_poly(self, level_limbs: Optional[int] = None) -> OpReport:
        """NTT of a full polynomial (all current limbs)."""
        level = self._level(level_limbs)
        cycles = level * self.ntt.limb_cycles()
        return OpReport("ntt_poly", cycles, limb_ntts=level,
                        breakdown={"ntt": cycles})

    # ------------------------------------------------------------------
    # Bootstrapping (Table 7, Fig. 2)
    # ------------------------------------------------------------------

    def _linear_transform(self, level: int, diagonals: int,
                          plain_levels: int = 1) -> OpReport:
        """One BSGS linear-transform factor at the given level."""
        n = self.config.fhe.ring_degree
        n1 = 1 << max(0, round(math.log2(max(diagonals, 1)) / 2))
        n2 = math.ceil(diagonals / n1)
        baby_rotations = max(n1 - 1, 0)
        giant_rotations = max(n2 - 1, 0)
        rotations = baby_rotations + giant_rotations
        report = OpReport(f"lt_d{diagonals}", 0)
        # Baby-step rotations all apply to the same input ciphertext, so
        # their ModUp is hoisted: the first pays full price, the rest
        # reuse the raised decomposition (Bossuat et al. [5]).
        for idx in range(baby_rotations):
            rot = self.rotate(level) if idx == 0 else self.rotate_hoisted(
                level)
            report = report.merged(rot, report.name)
        for _ in range(giant_rotations):
            report = report.merged(self.rotate(level), report.name)
        # Diagonal multiplies + accumulation (mult and add streams fuse).
        pt_mults = diagonals * 2 * level * n
        ew = self._ew(pt_mults)
        # Trailing rescale(s).
        rescale = self.rescale(level)
        cycles = report.cycles + ew + rescale.cycles * plain_levels
        report = OpReport(
            report.name, cycles,
            report.limb_ntts + rescale.limb_ntts * plain_levels,
            report.modmults + pt_mults + rescale.modmults * plain_levels,
            report.hbm_bytes,
            dict(report.breakdown, diag_mults=ew,
                 rescale=rescale.cycles * plain_levels))
        report.breakdown["rotations"] = rotations
        return report

    def bootstrap(self, fft_iter: Optional[int] = None,
                  slots: Optional[int] = None,
                  eval_mod_ct_mults: int = 20,
                  eval_mod_const_mults: int = 25) -> BootstrapReport:
        """Walk the full bootstrapping pipeline, tracking levels.

        Args:
            fft_iter: multiplicative depth of each homomorphic FFT
                (default: the config's fftIter).
            slots: packed slots (default N/2, fully packed).
            eval_mod_ct_mults: ciphertext-ciphertext multiplies in the
                depth-9 sine evaluation (Bossuat et al. polynomial).
            eval_mod_const_mults: plaintext multiplies in EvalMod.
        """
        fhe = self.config.fhe
        fft_iter = fft_iter if fft_iter is not None else fhe.fft_iter
        n = fhe.ring_degree
        slots = slots if slots is not None else n // 2
        log_slots = max(int(math.log2(slots)), 1)
        level = fhe.num_limbs
        stage_cycles: Dict[str, int] = {}
        total_ntts = 0
        total_rot = 0

        # ModRaise: iNTT the single remaining limb, reduce, NTT all limbs.
        raise_ntts = 2 * (1 + level)
        raise_cycles = raise_ntts * self.ntt.limb_cycles(n)
        stage_cycles["mod_raise"] = raise_cycles
        total_ntts += raise_ntts

        # CoeffToSlot: fftIter grouped DFT factors (+1 conjugation to
        # split real/imag halves).
        radix_bits = math.ceil(log_slots / fft_iter)
        diagonals = (1 << radix_bits) + 1
        cts_cycles = 0
        for _ in range(fft_iter):
            lt = self._linear_transform(level, diagonals)
            cts_cycles += lt.cycles
            total_ntts += lt.limb_ntts
            total_rot += lt.breakdown.get("rotations", 0)
            level -= 1
        conj = self.conjugate(level)
        cts_cycles += conj.cycles
        total_ntts += conj.limb_ntts
        total_rot += 1
        stage_cycles["coeff_to_slot"] = cts_cycles

        # EvalMod on both coefficient halves: the depth-9 sine polynomial
        # of Bossuat et al. [5] (~20 ct-ct multiplies per ciphertext,
        # distributed over the depth levels: the Chebyshev power ladder
        # runs at high levels, the Paterson-Stockmeyer combines lower).
        eval_cycles = 0
        depth = fhe.eval_mod_depth
        base = eval_mod_ct_mults // depth
        extra = eval_mod_ct_mults - base * depth
        # Sparse ciphertexts need a single EvalMod branch (the standard
        # sparse-packing optimization); fully-packed ones evaluate the
        # sine on both coefficient halves.
        branches = 2 if slots == n // 2 else 1
        for _half in range(branches):
            lvl = level
            for step in range(depth):
                mults_here = base + (1 if step < extra else 0)
                for _ in range(mults_here):
                    m = self.multiply(lvl)
                    r = self.rescale(lvl)
                    eval_cycles += m.cycles + r.cycles
                    total_ntts += m.limb_ntts + r.limb_ntts
                lvl -= 1
            const = eval_mod_const_mults * self._ew(2 * level * n)
            eval_cycles += const
        level -= depth
        stage_cycles["eval_mod"] = eval_cycles

        # SlotToCoeff: fftIter factors (no fold constants).
        stc_cycles = 0
        for _ in range(fft_iter):
            lt = self._linear_transform(level, diagonals)
            stc_cycles += lt.cycles
            total_ntts += lt.limb_ntts
            total_rot += lt.breakdown.get("rotations", 0)
            level -= 1
        stage_cycles["slot_to_coeff"] = stc_cycles

        total = sum(stage_cycles.values())
        return BootstrapReport(
            cycles=total, stage_cycles=stage_cycles, limb_ntts=total_ntts,
            rotations=total_rot, levels_after=max(level - 1, 0),
            slots=slots)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    def amortized_mult_per_slot(self, fft_iter: Optional[int] = None,
                                slots: Optional[int] = None) -> float:
        """Equation (2): amortized multiplication time per slot (seconds)."""
        boot = self.bootstrap(fft_iter=fft_iter, slots=slots)
        if boot.levels_after == 0:
            return float("inf")
        mult_time = 0.0
        # After bootstrapping the ciphertext has levels_after + 1 limbs;
        # each multiply+rescale consumes one.
        for level in range(boot.levels_after + 1, 1, -1):
            mult_time += self.config.cycles_to_seconds(
                self.multiply(level).cycles + self.rescale(level).cycles)
        total = boot.seconds(self.config) + mult_time
        return total / (boot.levels_after * boot.slots)
