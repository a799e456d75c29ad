"""Homomorphic linear transforms via the BSGS diagonal method.

The two linear transforms in CKKS bootstrapping (CoeffToSlot and
SlotToCoeff, §2.1.3 of the paper) are matrix-vector products evaluated
homomorphically.  A matrix ``M`` acts on the slot vector as

    M z = sum_d diag_d(M) ⊙ rot_d(z)

and the baby-step/giant-step (BSGS) grouping reduces the rotation count
from ``n`` to about ``n1 + n/n1``:

    M z = sum_i rot_{i*n1}( sum_j rot_{-i*n1}(diag_{i*n1+j}) ⊙ rot_j(z) )

Rotations are exactly the ``Automorph`` + ``KeySwitch`` pipeline that
dominates FAB's bootstrapping cost; the rotation counts of this module
are mirrored analytically by :mod:`repro.perf.opcounts`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..ciphertext import Ciphertext
from ..encoder import CkksEncoder, Plaintext
from ..evaluator import Evaluator
from ..rns import RnsBasis


def matrix_diagonals(matrix: np.ndarray) -> Dict[int, np.ndarray]:
    """Extract the nonzero generalized diagonals of a square matrix.

    Diagonal ``d`` is the vector ``diag_d[j] = M[j, (j + d) mod n]``.
    Diagonals with negligible magnitude (< 1e-14 of the max) are dropped.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    threshold = 1e-14 * max(1.0, float(np.max(np.abs(matrix))))
    diagonals: Dict[int, np.ndarray] = {}
    rows = np.arange(n)
    for d in range(n):
        diag = matrix[rows, (rows + d) % n]
        if np.max(np.abs(diag)) > threshold:
            diagonals[d] = diag
    return diagonals


def bsgs_split(num_diagonals: int, n: int) -> int:
    """Pick the baby-step count n1 (power of two) minimizing rotations."""
    best_n1, best_cost = 1, float("inf")
    n1 = 1
    while n1 <= n:
        n2 = math.ceil(n / n1)
        cost = (n1 - 1) + (n2 - 1)
        if cost < best_cost:
            best_cost, best_n1 = cost, n1
        n1 *= 2
    return best_n1


class LinearTransform:
    """A precomputed homomorphic matrix-vector product.

    The diagonals are rotated for the BSGS grouping and encoded at the
    ciphertext's basis with scale equal to the primes that the trailing
    rescales will drop, so the output scale equals the input scale
    exactly.  Each basis is encoded on the first :meth:`apply` that
    meets it and cached on the transform, keyed by the basis primes and
    that scale, so later bootstraps encode nothing.
    """

    def __init__(self, matrix: np.ndarray, num_slots: int,
                 encoder: CkksEncoder, baby_steps: Optional[int] = None,
                 plain_levels: int = 1):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (num_slots, num_slots):
            raise ValueError(
                f"matrix shape {matrix.shape} != ({num_slots}, {num_slots})")
        if plain_levels < 1:
            raise ValueError("plain_levels must be >= 1")
        self.num_slots = num_slots
        self.encoder = encoder
        self.diagonals = matrix_diagonals(matrix)
        if not self.diagonals:
            raise ValueError("matrix has no nonzero diagonals")
        self.baby_steps = baby_steps or bsgs_split(len(self.diagonals),
                                                   num_slots)
        self.giant_count = math.ceil(num_slots / self.baby_steps)
        #: Number of limbs the plaintext diagonals span (> 1 buys
        #: precision when the matrix entries are very small, as in
        #: CoeffToSlot where the 1/(q0 K) factor is folded in).
        self.plain_levels = plain_levels
        self._encoded: Dict[Tuple[Tuple[int, ...], float],
                            Dict[int, Plaintext]] = {}

    # ------------------------------------------------------------------

    def required_rotations(self) -> Set[int]:
        """Slot rotations needed (for Galois-key generation)."""
        rotations: Set[int] = set()
        n1 = self.baby_steps
        for j in range(1, n1):
            if any(((i * n1 + j) % self.num_slots) in self.diagonals
                   for i in range(self.giant_count)):
                rotations.add(j)
        for i in range(1, self.giant_count):
            if any(((i * n1 + j) % self.num_slots) in self.diagonals
                   for j in range(n1)):
                rotations.add(i * n1)
        rotations.discard(0)
        return rotations

    def _plaintexts(self, basis: RnsBasis,
                    plain_scale: float) -> Dict[int, Plaintext]:
        """Diagonal index -> its BSGS-rotated diagonal, encoded at
        ``basis`` and ``plain_scale`` (on the first call only)."""
        key = (basis.primes, plain_scale)
        encoded = self._encoded.get(key)
        if encoded is None:
            n1 = self.baby_steps
            # Diagonal d = i*n1 + j is multiplied by rot_{-i*n1}: with
            # rot_k = left-rotation by k, a right roll by i*n1.
            encoded = {
                d: self.encoder.encode(np.roll(diag, d - d % n1),
                                       scale=plain_scale, basis=basis,
                                       num_slots=self.num_slots)
                for d, diag in self.diagonals.items()}
            self._encoded[key] = encoded
        return encoded

    def apply(self, ct: Ciphertext, evaluator: Evaluator) -> Ciphertext:
        """Evaluate ``M @ slots(ct)`` homomorphically.

        Consumes exactly one level (single trailing rescale); the output
        scale equals the input scale.
        """
        n = self.num_slots
        n1 = self.baby_steps
        basis = ct.c0.basis
        if len(basis) < self.plain_levels + 1:
            raise ValueError(
                f"linear transform needs at least {self.plain_levels + 1} "
                "limbs")
        plain_scale = 1.0
        for q in basis.primes[-self.plain_levels:]:
            plain_scale *= float(q)
        # Baby-step rotations of the input, with a hoisted (shared)
        # ModUp — the optimization of [5] that FAB's bootstrapping
        # algorithm relies on.
        baby_steps = [j for j in range(1, n1)
                      if any(((i * n1 + j) % n) in self.diagonals
                             for i in range(self.giant_count))]
        babies: Dict[int, Ciphertext] = {0: ct}
        babies.update(evaluator.rotate_hoisted(ct, baby_steps))
        plaintexts = self._plaintexts(basis, plain_scale)
        total: Optional[Ciphertext] = None
        for i in range(self.giant_count):
            inner: Optional[Ciphertext] = None
            shift = i * n1
            for j in range(n1):
                pt = plaintexts.get((shift + j) % n)
                if pt is None or j not in babies:
                    continue
                term = evaluator.multiply_plain(babies[j], pt)
                inner = term if inner is None else evaluator.add(inner, term)
            if inner is None:
                continue
            if shift:
                inner = evaluator.rotate(inner, shift)
            total = inner if total is None else evaluator.add(total, inner)
        if total is None:
            raise ValueError("transform produced no terms")
        for _ in range(self.plain_levels):
            total = evaluator.rescale(total)
        return total
