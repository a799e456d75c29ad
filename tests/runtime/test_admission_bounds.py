"""The bounds that let edf admission skip exact state, in both engines.

The DES (``policies._edf_admit``) and the fast engine each read a
board's key cache only when a cheap bound cannot decide: a batch that
meets its deadline even with every switching key missing is taken
with no preview.  That is exact only because the cold load dominates
every preview, which the first group of tests pins for both key-cache
classes and for the fast engine's own per-stream cold load.  The
second group makes the preview decide: with an interactive SLO
between the best-case and the cold-start service time of one job, the
bound never passes, both engines preview, boards with cold keys skip
heads, and the two engines still agree report for report.  Under the
default SLO, the bound decides every admission and neither engine
previews at all.
"""

from __future__ import annotations

import collections
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FabConfig
from repro.core.host import HostConfig
from repro.obs import Recorder
from repro.runtime.fast_engine import _FastEngine
from repro.runtime.policies import PriceSignal
from repro.runtime.serving import (
    JobClass,
    KeyCache,
    Scenario,
    ServingSimulator,
    SetKeyCache,
    Stream,
    build_job_classes,
    build_slo_scenario,
    key_load_seconds,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from test_fast_engine import assert_reports_identical  # noqa: E402

CLASSES = [
    JobClass("a", cycles=1, key_ids=("a0", "a1", "a2"), bytes_per_key=100),
    JobClass("b", cycles=1, key_ids=("b0", "b1"), bytes_per_key=300),
    JobClass("z", cycles=1, key_ids=("z0", "z1"), bytes_per_key=0),
    JobClass(
        "big", cycles=1, key_ids=tuple(f"g{i}" for i in range(40)), bytes_per_key=100
    ),
    JobClass("none", cycles=1, key_ids=(), bytes_per_key=100),
    # Paper-scale: eleven keys of 81 MiB.
    JobClass(
        "paper",
        cycles=1,
        key_ids=tuple(f"p{i}" for i in range(11)),
        bytes_per_key=84_934_656,
    ),
]
TENANTS = [f"t{i}" for i in range(4)]


@pytest.fixture(scope="module")
def config():
    return FabConfig()


class _PolicyEvents(Recorder):
    """Counts policy events by name."""

    def __init__(self):
        self.events = collections.Counter()

    def policy_event(self, *, t, name, **args):
        self.events[name] += 1


@pytest.fixture
def previews(monkeypatch):
    """Counts ``peek_miss_bytes`` calls on both key-cache classes."""
    calls = collections.Counter()
    for cls in (KeyCache, SetKeyCache):
        peek = cls.peek_miss_bytes

        def counted(self, tenant, job_class, _peek=peek):
            calls["peek"] += 1
            return _peek(self, tenant, job_class)

        monkeypatch.setattr(cls, "peek_miss_bytes", counted)
    return calls


class TestColdBound:
    """The cold load bounds every preview, float for float."""

    @staticmethod
    def _assert_bounded(cache, empty):
        for tenant in TENANTS:
            for jc in CLASSES:
                miss = cache.peek_miss_bytes(tenant, jc)
                assert miss <= jc.key_bytes
                if empty:
                    assert miss == jc.key_bytes

    @given(
        steps=st.lists(
            st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 5))),
            max_size=120,
        ),
        capacity=st.sampled_from([1, 350, 900, 2500, 10**6]),
        cache_type=st.sampled_from([KeyCache, SetKeyCache]),
    )
    @settings(max_examples=60, deadline=None)
    def test_preview_never_exceeds_key_bytes(self, steps, capacity, cache_type):
        """Under any requests and wipes, a preview misses at most the
        class's key bytes, and exactly those on an empty cache."""
        cache = cache_type(capacity)
        self._assert_bounded(cache, empty=True)
        for step in steps:
            if step is None:
                cache.drop_all()
            else:
                cache.request(TENANTS[step[0]], CLASSES[step[1]])
            self._assert_bounded(cache, empty=step is None)

    @given(jc=st.sampled_from(CLASSES), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cold_load_bounds_the_previewed_load(self, jc, data):
        """The preview's inline load expression never exceeds
        ``key_load_seconds`` of the whole working set."""
        host = HostConfig()
        denom = host.pcie_gbytes_per_sec * 1e9
        miss = data.draw(st.integers(0, len(jc.key_ids))) * jc.bytes_per_key
        load = miss / denom + host.pcie_latency_s if miss else 0.0
        assert load <= key_load_seconds(host, jc.key_bytes)

    def test_engine_prices_the_cold_load_once_per_stream(self, config):
        classes = build_job_classes(config, training_stripe=2)
        free = JobClass("free", cycles=1000, key_ids=("f0", "f1"), bytes_per_key=0)
        streams = [
            Stream(classes["lr_inference"], 100.0, slo_ms=50.0),
            Stream(classes["analytics"], 50.0, tenant_prefix="b", window_s=0.05),
            Stream(classes["lr_training"], 10.0, tenant_prefix="c", slo_ms=500.0),
            Stream(free, 100.0, tenant_prefix="f", slo_ms=1.0),
        ]
        assert classes["lr_training"].num_fpgas == 2
        sim = ServingSimulator(config, num_devices=3)
        engine = _FastEngine(
            sim,
            Scenario("cold", 0.05, streams),
            0,
            "edf",
            PriceSignal.flat(),
            None,
            "exact",
        )
        expected = [key_load_seconds(sim.host, s.job_class.key_bytes) for s in streams]
        assert engine.s_cold == expected
        assert engine.s_cold[-1] == 0.0

    def test_loads_cannot_fall_as_misses_grow(self):
        with pytest.raises(ValueError, match="PCIe"):
            HostConfig(pcie_latency_s=-1e-6)
        with pytest.raises(ValueError, match="PCIe"):
            HostConfig(pcie_gbytes_per_sec=0.0)
        with pytest.raises(ValueError, match="bytes_per_key"):
            JobClass("neg", cycles=1, key_ids=("k",), bytes_per_key=-1)


class TestPreviewDecides:
    """An SLO the cold bound can never meet leaves every admission to
    the preview; the fast engine must still match the DES."""

    @staticmethod
    def _scenario(config, sim, fraction, devices, load, stripe):
        inference = build_job_classes(config)["lr_inference"]
        best = sim.best_case_service_s(inference, 1)
        bound = sim.service_bound_s(inference, 1)
        slo_s = best + fraction * (bound - best)
        assert best < slo_s < bound
        return build_slo_scenario(
            config,
            num_devices=devices,
            duration_s=0.15,
            target_load=load,
            interactive_slo_ms=slo_s * 1e3,
            training_stripe=stripe,
        )

    @pytest.mark.parametrize("policy", ["edf", "deferrable-window"])
    @pytest.mark.parametrize("stripe", [1, 2])
    @pytest.mark.parametrize("fraction", [0.2, 0.8])
    def test_cold_boards_skip(self, config, previews, policy, stripe, fraction):
        sim = ServingSimulator(config, num_devices=3, max_batch=8)
        scenario = self._scenario(config, sim, fraction, 3, 0.9, stripe)
        recorder = _PolicyEvents()
        des = sim.run(scenario, seed=1, policy=policy, recorder=recorder)
        assert recorder.events["skip cold board"] > 0
        assert previews["peek"] > 0
        previews.clear()
        fast = sim.run(scenario, seed=1, policy=policy, engine="fast")
        assert previews["peek"] > 0
        assert_reports_identical(fast, des)

    @given(
        policy=st.sampled_from(["edf", "deferrable-window"]),
        seed=st.integers(0, 10_000),
        fraction=st.floats(0.01, 0.99),
        devices=st.integers(2, 4),
        load=st.floats(0.4, 1.6),
        stripe=st.sampled_from([1, 2]),
        max_batch=st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_parity(
        self, config, policy, seed, fraction, devices, load, stripe, max_batch
    ):
        sim = ServingSimulator(config, num_devices=devices, max_batch=max_batch)
        scenario = self._scenario(config, sim, fraction, devices, load, stripe)
        des = sim.run(scenario, seed=seed, policy=policy)
        fast = sim.run(scenario, seed=seed, policy=policy, engine="fast")
        assert_reports_identical(fast, des)

    def test_default_slo_needs_no_preview(self, config, previews):
        """Under the default SLO (three cold-start service times) at
        moderate load, the cold bound decides every admission in
        either engine."""
        sim = ServingSimulator(config)
        scenario = build_slo_scenario(config, duration_s=1.0, target_load=0.6)
        interactive = scenario.streams[0]
        bound_s = sim.service_bound_s(interactive.job_class, 1)
        assert interactive.slo_ms / 1e3 > bound_s
        des = sim.run(scenario, seed=1, policy="edf")
        assert des.batches > 0
        assert previews["peek"] == 0
        fast = sim.run(scenario, seed=1, policy="edf", engine="fast")
        assert previews["peek"] == 0
        assert_reports_identical(fast, des)
