"""Tests for trace capture: transparency, recording, app capture."""

import numpy as np
import pytest

from repro.apps.lr.data import Dataset
from repro.apps.lr.encrypted import EncryptedLrTrainer
from repro.fhe import CkksParams, CkksScheme
from repro.fhe.align import ScaleAligner
from repro.runtime import (OpTrace, TracingEvaluator, capture,
                           cost_trace, lower_trace)


@pytest.fixture(scope="module")
def lr_capture_scheme():
    params = CkksParams(ring_degree=64, num_limbs=8, scale_bits=26,
                        dnum=2, hamming_weight=8, first_prime_bits=30,
                        seed=33)
    return CkksScheme(params)


class TestTransparency:
    """Tracing must not change functional results."""

    def test_traced_results_bit_identical(self, small_scheme, rng):
        ev = small_scheme.evaluator
        traced = TracingEvaluator.wrap(ev)
        a = small_scheme.encrypt(rng.normal(size=4), num_slots=4)
        b = small_scheme.encrypt(rng.normal(size=4), num_slots=4)
        plain = ev.rescale(ev.multiply(ev.add(a, b), b))
        under_trace = traced.rescale(traced.multiply(traced.add(a, b), b))
        assert np.array_equal(plain.c0.limbs, under_trace.c0.limbs)
        assert np.array_equal(plain.c1.limbs, under_trace.c1.limbs)
        assert len(traced.trace) == 3

    def test_capture_restores_scheme(self, small_scheme):
        original_ev = small_scheme.evaluator
        original_enc = small_scheme.encoder
        with capture(small_scheme) as trace:
            assert isinstance(small_scheme.evaluator, TracingEvaluator)
        assert small_scheme.evaluator is original_ev
        assert small_scheme.encoder is original_enc
        assert trace.meta["ring_degree"] == 64

    def test_capture_restores_on_error(self, small_scheme):
        original_ev = small_scheme.evaluator
        with pytest.raises(RuntimeError):
            with capture(small_scheme):
                raise RuntimeError("app blew up")
        assert small_scheme.evaluator is original_ev


class TestRecording:
    def test_basic_op_kinds_and_levels(self, small_scheme, rng):
        with capture(small_scheme) as trace:
            ev = small_scheme.evaluator
            a = small_scheme.encrypt(rng.normal(size=4), num_slots=4)
            b = small_scheme.encrypt(rng.normal(size=4), num_slots=4)
            c = ev.add(a, b)
            d = ev.rescale(ev.multiply(c, b))
            ev.rotate(d, 2)
            ev.conjugate(d)
        counts = trace.op_counts()
        assert counts == {"add": 1, "multiply": 1, "rescale": 1,
                          "rotate": 1, "conjugate": 1}
        by_kind = {op.kind: op for op in trace}
        limbs = small_scheme.params.num_limbs
        assert by_kind["add"].level == limbs
        assert by_kind["rescale"].level == limbs      # pre-drop level
        assert by_kind["rotate"].level == limbs - 1
        assert by_kind["rotate"].step == 2

    def test_operand_ids_chain(self, small_scheme, rng):
        with capture(small_scheme) as trace:
            ev = small_scheme.evaluator
            a = small_scheme.encrypt(rng.normal(size=4), num_slots=4)
            b = ev.add(a, a)
            ev.add(b, b)
        first, second = trace.ops
        assert first.operands == (0, 0)
        assert first.result == 1
        assert second.operands == (1, 1)

    def test_zero_rotation_not_recorded(self, small_scheme, rng):
        with capture(small_scheme) as trace:
            ev = small_scheme.evaluator
            a = small_scheme.encrypt(rng.normal(size=4), num_slots=4)
            ev.rotate(a, 0)
        assert len(trace) == 0

    def test_hoisted_first_rotation_full_price(self, small_scheme, rng):
        with capture(small_scheme) as trace:
            ev = small_scheme.evaluator
            a = small_scheme.encrypt(rng.normal(size=4), num_slots=4)
            ev.rotate_hoisted(a, [0, 1, 2, 3])
        counts = trace.op_counts()
        assert counts == {"rotate": 1, "rotate_hoisted": 2}
        assert trace.meta["hoisted_decompose_calls"] == 1
        assert trace.meta["hoisted_keyswitch_calls"] == 3

    def test_keyswitch_counters(self, small_scheme, rng):
        with capture(small_scheme) as trace:
            ev = small_scheme.evaluator
            a = small_scheme.encrypt(rng.normal(size=4), num_slots=4)
            ev.multiply(a, a)
            ev.square(a)
            ev.rotate(a, 1)
            ev.conjugate(a)
        # multiply, square, rotate, conjugate each switch keys once.
        assert trace.meta["keyswitch_calls"] == 4

    def test_encoder_counted(self, small_scheme, rng):
        with capture(small_scheme) as trace:
            ct = small_scheme.encrypt(rng.normal(size=4), num_slots=4)
            small_scheme.decrypt(ct)
        assert trace.meta["encodes"] == 1
        assert trace.meta["decodes"] == 1

    def test_constant_encodes_counted(self, small_scheme, rng):
        with capture(small_scheme) as trace:
            ct = small_scheme.encrypt(rng.normal(size=4), num_slots=4)
            ScaleAligner(small_scheme.evaluator,
                         small_scheme.encoder).add_const(ct, 0.5)
        # The constant skips the FFT, not the count.
        assert trace.meta["encodes"] == 2

    def test_mod_down_recorded_and_lowered_away(self, small_scheme, rng):
        with capture(small_scheme) as trace:
            ev = small_scheme.evaluator
            a = small_scheme.encrypt(rng.normal(size=4), num_slots=4)
            ev.mod_down_to(a, 3)
        assert trace.op_counts() == {"mod_down": 1}
        assert len(lower_trace(trace)) == 0


class TestAppCapture:
    """The headline path: run an app, get a costed FAB program."""

    def test_lr_iteration_capture_and_lower(self, lr_capture_scheme, rng):
        features = rng.random(size=(3, 4))
        labels = np.array([1.0, 0.0, 1.0])
        dataset = Dataset(features, labels)
        with capture(lr_capture_scheme, "lr_tiny") as trace:
            trainer = EncryptedLrTrainer(lr_capture_scheme)
            state = trainer.init_state(dataset.num_features)
            trainer.iteration(state, dataset)
        assert state.iterations_done == 1
        counts = trace.op_counts()
        # The iteration's op families all show up.
        for kind in ("multiply", "rescale", "rotate", "add"):
            assert counts.get(kind, 0) > 0, counts
        # Lowered onto the paper-scale config, the trace is schedulable
        # and carries a real key working set.
        cost = cost_trace(trace)
        assert cost.cycles > 0
        assert cost.keys.num_keys >= 2  # relin + rotation keys
        # Capture did not break the app: weights still decryptable.
        weights = trainer.decrypted_weights(state, dataset.num_features)
        assert np.all(np.isfinite(weights))

    def test_trace_json_roundtrip_from_capture(self, lr_capture_scheme,
                                               rng):
        with capture(lr_capture_scheme, "roundtrip") as trace:
            ev = lr_capture_scheme.evaluator
            a = lr_capture_scheme.encrypt(rng.normal(size=4), num_slots=4)
            ev.rescale(ev.multiply(a, a))
        back = OpTrace.from_json(trace.to_json())
        assert back.op_counts() == trace.op_counts()
        assert [op.kind for op in back] == [op.kind for op in trace]
