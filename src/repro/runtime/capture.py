"""Trace capture: run any app once, get an :class:`OpTrace` out.

:class:`TracingEvaluator` is a drop-in :class:`repro.fhe.Evaluator`
that performs every operation normally (results are bit-identical) and
records it into an :class:`repro.runtime.optrace.OpTrace`.  The
:func:`capture` context manager swaps a scheme's evaluator and encoder
for tracing versions, so existing applications in :mod:`repro.apps`
are captured by simply constructing them inside the block::

    with capture(scheme, "lr-iteration") as trace:
        trainer = EncryptedLrTrainer(scheme)
        trainer.iteration(state, batch)
    program = lower_trace(trace)          # -> FabProgram task graph

Conventions mirroring the FAB cost model:

* The first rotation of a hoisted batch is recorded as a full
  ``rotate`` (it carries the shared ModUp), the rest as
  ``rotate_hoisted`` — the same accounting the hand-built
  linear-transform model uses.
* Level drops (``mod_down``) are recorded for fidelity but lower to
  nothing: on FAB, dropping limbs is bookkeeping, not compute.
* KeySwitcher and CkksEncoder entry points are counted in the trace
  metadata (``keyswitch_calls``, ``hoisted_keyswitch_calls``,
  ``hoisted_decompose_calls``, ``encodes``, ``decodes``), which the
  tests use to cross-check the recorded op mix.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from ..fhe.ciphertext import Ciphertext
from ..fhe.encoder import CkksEncoder, Plaintext
from ..fhe.evaluator import Evaluator
from ..fhe.keyswitch import KeySwitcher
from .optrace import OpTrace


class CountingKeySwitcher(KeySwitcher):
    """KeySwitcher that tallies its entry points into the trace meta."""

    def __init__(self, context, trace: OpTrace):
        super().__init__(context)
        self.trace = trace

    def _bump(self, key: str) -> None:
        self.trace.meta[key] = int(self.trace.meta.get(key, 0)) + 1

    def switch(self, *args, **kwargs):
        self._bump("keyswitch_calls")
        return super().switch(*args, **kwargs)

    def switch_hoisted(self, *args, **kwargs):
        self._bump("hoisted_keyswitch_calls")
        return super().switch_hoisted(*args, **kwargs)

    def hoisted_decompose(self, *args, **kwargs):
        self._bump("hoisted_decompose_calls")
        return super().hoisted_decompose(*args, **kwargs)


class TracingEncoder:
    """Delegating CkksEncoder wrapper counting encode/decode calls
    (a constant encode counts as an encode)."""

    def __init__(self, encoder: CkksEncoder, trace: OpTrace):
        self._encoder = encoder
        self.trace = trace

    def _bump(self, key: str) -> None:
        self.trace.meta[key] = int(self.trace.meta.get(key, 0)) + 1

    def encode(self, *args, **kwargs) -> Plaintext:
        self._bump("encodes")
        return self._encoder.encode(*args, **kwargs)

    def encode_constant(self, *args, **kwargs) -> Plaintext:
        self._bump("encodes")
        return self._encoder.encode_constant(*args, **kwargs)

    def decode(self, *args, **kwargs):
        self._bump("decodes")
        return self._encoder.decode(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._encoder, name)


class TracingEvaluator(Evaluator):
    """An Evaluator that records every operation it performs."""

    def __init__(self, context, relin_key=None, galois_keys=None,
                 trace: Optional[OpTrace] = None):
        super().__init__(context, relin_key, galois_keys)
        self.trace = trace if trace is not None else OpTrace()
        self.key_switcher = CountingKeySwitcher(context, self.trace)
        self._paused = 0
        # Trace ids are assigned per ciphertext object; pinning the
        # objects keeps id() values from being recycled mid-capture.
        self._ids: Dict[int, int] = {}
        self._pinned: List[Ciphertext] = []

    @classmethod
    def wrap(cls, evaluator: Evaluator,
             trace: Optional[OpTrace] = None) -> "TracingEvaluator":
        """A tracing evaluator sharing ``evaluator``'s context and keys."""
        return cls(evaluator.context, evaluator.relin_key,
                   evaluator.galois_keys, trace)

    # ------------------------------------------------------------------
    # Recording machinery
    # ------------------------------------------------------------------

    def _tid(self, ct: Ciphertext) -> int:
        """Stable trace id for a ciphertext object."""
        key = id(ct)
        if key not in self._ids:
            self._ids[key] = len(self._ids)
            self._pinned.append(ct)
        return self._ids[key]

    @contextmanager
    def _pause(self):
        """Suppress recording inside composite operations."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _record(self, kind: str, level: int, step: Optional[int] = None,
                operands: Sequence[Ciphertext] = (),
                result: Optional[Ciphertext] = None) -> None:
        if self._paused:
            return
        self.trace.record(kind, level, step,
                          [self._tid(ct) for ct in operands],
                          self._tid(result) if result is not None else None)

    # ------------------------------------------------------------------
    # Level management
    # ------------------------------------------------------------------

    def mod_down_to(self, ct, num_limbs):
        dropped = ct.level_count > num_limbs
        result = super().mod_down_to(ct, num_limbs)
        if dropped:
            self._record("mod_down", num_limbs, operands=[ct],
                         result=result)
        return result

    # ------------------------------------------------------------------
    # Addition family
    # ------------------------------------------------------------------

    def add(self, a, b):
        result = super().add(a, b)
        self._record("add", result.level_count, operands=[a, b],
                     result=result)
        return result

    def sub(self, a, b):
        result = super().sub(a, b)
        self._record("sub", result.level_count, operands=[a, b],
                     result=result)
        return result

    def negate(self, a):
        result = super().negate(a)
        self._record("negate", result.level_count, operands=[a],
                     result=result)
        return result

    def add_plain(self, ct, pt):
        result = super().add_plain(ct, pt)
        self._record("add_plain", result.level_count, operands=[ct],
                     result=result)
        return result

    def sub_plain(self, ct, pt):
        result = super().sub_plain(ct, pt)
        self._record("sub_plain", result.level_count, operands=[ct],
                     result=result)
        return result

    # ------------------------------------------------------------------
    # Multiplication family
    # ------------------------------------------------------------------

    def multiply(self, a, b, relin_key=None):
        result = super().multiply(a, b, relin_key)
        self._record("multiply", result.level_count, operands=[a, b],
                     result=result)
        return result

    def square(self, a, relin_key=None):
        result = super().square(a, relin_key)
        self._record("square", result.level_count, operands=[a],
                     result=result)
        return result

    def multiply_plain(self, ct, pt):
        result = super().multiply_plain(ct, pt)
        self._record("multiply_plain", result.level_count, operands=[ct],
                     result=result)
        return result

    def multiply_scalar_int(self, ct, scalar):
        result = super().multiply_scalar_int(ct, scalar)
        self._record("multiply_scalar", result.level_count, operands=[ct],
                     result=result)
        return result

    def multiply_by_monomial(self, ct, exponent):
        effective = exponent % (2 * ct.ring_degree)
        result = super().multiply_by_monomial(ct, exponent)
        if effective:  # exponent 0 is a copy, not an operation
            self._record("multiply_plain", result.level_count,
                         operands=[ct], result=result)
        return result

    # ------------------------------------------------------------------
    # Rescale
    # ------------------------------------------------------------------

    def rescale(self, ct):
        result = super().rescale(ct)
        # Cost models key rescale on the limb count before the drop.
        self._record("rescale", ct.level_count, operands=[ct],
                     result=result)
        return result

    # ------------------------------------------------------------------
    # Rotation family
    # ------------------------------------------------------------------

    def rotate(self, ct, steps, galois_keys=None):
        steps_mod = steps % (ct.ring_degree // 2)
        with self._pause():
            result = super().rotate(ct, steps, galois_keys)
        if steps_mod:  # step 0 is a copy
            self._record("rotate", result.level_count, step=steps_mod,
                         operands=[ct], result=result)
        return result

    def conjugate(self, ct, galois_keys=None):
        with self._pause():
            result = super().conjugate(ct, galois_keys)
        self._record("conjugate", result.level_count, operands=[ct],
                     result=result)
        return result

    def apply_galois(self, ct, galois_element, galois_keys=None):
        result = super().apply_galois(ct, galois_element, galois_keys)
        # Raw automorphisms outside rotate/conjugate cost a rotation;
        # the negative step encodes the Galois element so distinct
        # Galois keys stay distinct in the key working set.
        self._record("rotate", result.level_count,
                     step=-int(galois_element), operands=[ct],
                     result=result)
        return result

    def rotate_hoisted(self, ct, steps, galois_keys=None):
        with self._pause():
            results = super().rotate_hoisted(ct, steps, galois_keys)
        first = True
        n_half = ct.ring_degree // 2
        for step in steps:
            if step % n_half == 0:
                continue  # copies are free
            # The first rotation carries the shared ModUp (full price),
            # the rest reuse the raised decomposition — matching the
            # cost model's linear-transform accounting.
            kind = "rotate" if first else "rotate_hoisted"
            first = False
            self._record(kind, results[step].level_count,
                         step=step % n_half, operands=[ct],
                         result=results[step])
        return results


@contextmanager
def capture(scheme, name: str = "capture",
            trace: Optional[OpTrace] = None):
    """Swap a scheme's evaluator/encoder for tracing versions.

    Yields the :class:`OpTrace` being filled.  Applications must be
    constructed *inside* the block (they snapshot
    ``scheme.evaluator``/``scheme.encoder`` at construction time).
    """
    params = scheme.params
    if trace is None:
        trace = OpTrace(name, meta={
            "ring_degree": params.ring_degree,
            "num_limbs": params.num_limbs,
            "scale_bits": params.scale_bits,
        })
    original_evaluator = scheme.evaluator
    original_encoder = scheme.encoder
    scheme.evaluator = TracingEvaluator.wrap(original_evaluator, trace)
    scheme.encoder = TracingEncoder(original_encoder, trace)
    try:
        yield trace
    finally:
        scheme.evaluator = original_evaluator
        scheme.encoder = original_encoder
