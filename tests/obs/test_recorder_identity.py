"""The zero-overhead contract: recorders never change the simulation.

Every instrumented hot path guards its hooks behind one enabled check,
so a run with no recorder, with the default :class:`NullRecorder`, and
with live recorders attached must produce **bit-identical** reports —
same float operations in the same order.  This is the regression net
under the CI perf-smoke step's tenant-scaling gate and the
NullRecorder overhead gate.
"""

import dataclasses

import pytest

from repro.core.params import FabConfig
from repro.obs import (NULL_RECORDER, CompositeRecorder, MetricsRecorder,
                       NullRecorder, Recorder, TimelineRecorder, compose)
from repro.obs.metrics import _CACHE_KEYS
from repro.runtime.policies import PriceSignal
from repro.runtime.serving import (KeyCache, ServingSimulator,
                                   build_scenarios, build_slo_scenario)

CONFIG = FabConfig()


def _reports(scenario, policy, price=None, devices=4):
    price = price or PriceSignal.flat()
    simulator = ServingSimulator(CONFIG, num_devices=devices)
    out = []
    for recorder in (None, NullRecorder(),
                     compose(TimelineRecorder(), MetricsRecorder())):
        out.append(simulator.run(scenario, seed=2, policy=policy,
                                 price=price, recorder=recorder))
    return out


@pytest.mark.parametrize("scenario_name,policy,price", [
    ("mixed", "fifo", None),
    ("slo", "edf", None),
    ("slo", "deferrable-window", "diurnal"),
])
def test_bit_identical_reports(scenario_name, policy, price):
    if scenario_name == "mixed":
        scenario = build_scenarios(CONFIG, num_devices=4,
                                   duration_s=0.2)["mixed"]
    else:
        scenario = build_slo_scenario(CONFIG, num_devices=4,
                                      duration_s=0.2, target_load=1.1)
    signal = (PriceSignal.diurnal(slot_s=0.05) if price == "diurnal"
              else None)
    bare, null, live = _reports(scenario, policy, signal)
    assert dataclasses.asdict(bare) == dataclasses.asdict(null)
    assert dataclasses.asdict(bare) == dataclasses.asdict(live)


def test_fast_path_matches_baseline_cache_stats():
    """The optimized KeyCache reproduces the cumulative counters the
    original quadratic cache reported on the same request stream."""
    from repro.runtime.serving import JobClass
    a = JobClass("a", 1, ("k1", "k2"), 100)
    b = JobClass("b", 1, ("k3",), 150)
    cache = KeyCache(capacity_bytes=350)
    loads = [cache.request(tenant, job_class)
             for tenant, job_class in [("t0", a), ("t1", a), ("t0", b),
                                       ("t0", a), ("t2", b), ("t1", a)]]
    assert loads == [200, 200, 150, 200, 150, 200]
    # The stream overflows 350B on every tenant switch: no hits.
    assert cache.stats() == {"hits": 0, "misses": 10, "bytes_loaded": 1100,
                             "evictions": 7, "bytes_evicted": 750,
                             "resident_bytes": 350}
    assert cache.hit_rate == 0.0
    assert list(cache._resident) == [("t2", "k3"), ("t1", "k1"),
                                     ("t1", "k2")]


def test_key_cache_stats_counters():
    cache = KeyCache(capacity_bytes=250)
    from repro.runtime.serving import JobClass
    a = JobClass("a", 1, ("k1", "k2"), 100)
    b = JobClass("b", 1, ("k3",), 150)
    assert cache.hit_rate == 0.0        # never used: 0, not a crash
    assert cache.request("t", a) == 200
    assert cache.request("t", a) == 0   # both resident
    stats = cache.stats()
    assert stats == {"hits": 2, "misses": 2, "bytes_loaded": 200,
                     "evictions": 0, "bytes_evicted": 0,
                     "resident_bytes": 200}
    # A second tenant's keys force evictions; cumulative bytes grow.
    cache.request("u", a)
    stats = cache.stats()
    assert stats["evictions"] == 2
    assert stats["bytes_evicted"] == 200
    assert stats["resident_bytes"] <= 250
    # counters() is what recorders snapshot: the same six ints, in the
    # MetricsRecorder's _CACHE_KEYS order (every value differs here, so
    # a swapped pair would show).
    cache.request("u", b)
    assert _CACHE_KEYS == ("hits", "misses", "bytes_loaded", "evictions",
                           "bytes_evicted", "resident_bytes")
    assert cache.counters() == (2, 5, 550, 3, 300, 250)
    assert cache.stats() == dict(zip(_CACHE_KEYS, cache.counters()))


def test_null_recorder_is_disabled_and_inert():
    null = NullRecorder()
    assert null.enabled is False
    assert NULL_RECORDER.enabled is False
    # Hooks exist and are no-ops (base-class contract).
    null.run_begin(scenario="s", num_devices=1, policy="fifo")
    null.batch(start=0.0, finish=1.0, job_class="a", tenant="t",
               batch_size=1, launch_s=0.0, members=((0, 0.0, 0),))
    null.run_end(makespan_s=1.0)


def test_compose_and_composite():
    # compose() collapses trivial cases...
    assert compose() is NULL_RECORDER
    assert compose(None, NullRecorder()) is NULL_RECORDER
    single = MetricsRecorder()
    assert compose(None, single) is single
    # ...and a real composite forwards to every live child.
    calls = []

    class Probe(Recorder):
        enabled = True

        def __init__(self, tag):
            self.tag = tag

        def queue_sample(self, *, t, total, depths=None):
            calls.append((self.tag, t, total))

    fanout = compose(Probe("a"), NullRecorder(), Probe("b"))
    assert isinstance(fanout, CompositeRecorder)
    assert fanout.enabled
    fanout.queue_sample(t=1.0, total=3)
    assert calls == [("a", 1.0, 3), ("b", 1.0, 3)]
