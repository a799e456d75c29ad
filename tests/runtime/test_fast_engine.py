"""Parity and contract tests for the vectorized fast engine.

The fast engine's correctness story is *exact equivalence* to the DES
oracle on a shared arrival sequence — not statistical similarity.  The
hypothesis suite here drives both engines across the policy x stripe x
tenancy x load space and requires bit-identical reports; unit tests
pin the working-set key cache to the per-key LRU, the once-per-run
choice between the two, recorder event streams, and the
engine-selection contract.
"""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import FabConfig
from repro.obs import MetricsRecorder, TimelineRecorder
from repro.runtime.fast_engine import run_fast
from repro.runtime.policies import PriceSignal
from repro.runtime.serving import (ENGINES, JobClass, KeyCache, Scenario,
                                   ServingSimulator, SetKeyCache, Stream,
                                   build_job_classes, build_scenarios,
                                   build_slo_scenario,
                                   default_interactive_slo_ms, key_caches)


@pytest.fixture(scope="module")
def config():
    return FabConfig()


def _eq(a, b):
    """NaN-aware structural equality (NaN == NaN holds).

    Rejected-only classes report NaN percentiles, where dataclass
    ``==`` would spuriously fail an otherwise identical report.
    """
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _eq(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _eq(v, b[k]) for k, v in a.items())
    return a == b


def assert_reports_identical(fast, des):
    fast_d = dataclasses.asdict(fast)
    des_d = dataclasses.asdict(des)
    for field in des_d:
        assert _eq(fast_d[field], des_d[field]), (
            f"field {field!r} diverged:\n"
            f"  fast: {fast_d[field]!r}\n"
            f"  des:  {des_d[field]!r}")


class TestHypothesisParity:
    """Fast == DES, field for field, on shared exact arrivals."""

    @given(name=st.sampled_from(
               ["interactive", "batch", "analytics", "mixed"]),
           policy=st.sampled_from(["fifo", "edf"]),
           seed=st.integers(0, 10_000),
           load=st.floats(0.2, 1.6),
           devices=st.integers(1, 6),
           max_batch=st.integers(1, 12),
           diurnal=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_canned_scenarios(self, name, policy, seed, load, devices,
                              max_batch, diurnal):
        config = FabConfig()
        scenario = build_scenarios(config, num_devices=devices,
                                   duration_s=0.15,
                                   target_load=load)[name]
        simulator = ServingSimulator(config, num_devices=devices,
                                     max_batch=max_batch)
        price = (PriceSignal.diurnal(slot_s=0.02) if diurnal
                 else None)
        des = simulator.run(scenario, seed=seed, policy=policy,
                            price=price)
        fast = simulator.run(scenario, seed=seed, policy=policy,
                             price=price, engine="fast")
        assert_reports_identical(fast, des)

    @given(policy=st.sampled_from(
               ["fifo", "edf", "deferrable-window"]),
           seed=st.integers(0, 10_000),
           stripe=st.sampled_from([1, 2, 4]),
           load=st.floats(0.5, 2.0),
           interactive_fraction=st.floats(0.0, 1.0),
           diurnal=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_slo_scenarios(self, policy, seed, stripe, load,
                           interactive_fraction, diurnal):
        """The SLO scenario: deadlines, admission control, deferral
        windows, and striped gangs — the full policy surface."""
        config = FabConfig()
        scenario = build_slo_scenario(
            config, num_devices=4, duration_s=0.15, target_load=load,
            interactive_fraction=interactive_fraction,
            training_stripe=stripe)
        simulator = ServingSimulator(config, num_devices=4,
                                     max_batch=8)
        price = (PriceSignal.diurnal(slot_s=0.02) if diurnal
                 else None)
        des = simulator.run(scenario, seed=seed, policy=policy,
                            price=price)
        fast = simulator.run(scenario, seed=seed, policy=policy,
                             price=price, engine="fast")
        assert_reports_identical(fast, des)

    @given(policy=st.sampled_from(["edf", "deferrable-window"]),
           seed=st.integers(0, 10_000),
           load=st.floats(0.5, 1.6),
           max_batch=st.integers(4, 12),
           devices=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_queues_with_decreasing_deadlines(self, config, policy, seed,
                                              load, max_batch, devices):
        """Two streams of one class under one tenant prefix with
        different SLOs (and a deferrable pair with different windows)
        share their queues, so a later job can carry a tighter
        deadline than the jobs ahead of it and admission must trim to
        the prefix minimum, not the head's deadline."""
        classes = build_job_classes(config)
        inference, analytics = (classes["lr_inference"],
                                classes["analytics"])
        slo_ms = default_interactive_slo_ms(inference, config)
        duration = 0.15

        def rate(job_class, share):
            return load * share * devices / job_class.seconds(config)

        streams = [
            Stream(inference, rate(inference, 0.35), num_tenants=2,
                   tenant_prefix="user", slo_ms=slo_ms),
            Stream(inference, rate(inference, 0.35), num_tenants=2,
                   tenant_prefix="user", slo_ms=2.5 * slo_ms),
            Stream(analytics, rate(analytics, 0.15), num_tenants=2,
                   tenant_prefix="batch", deferrable=True,
                   window_s=duration),
            Stream(analytics, rate(analytics, 0.15), num_tenants=2,
                   tenant_prefix="batch", deferrable=True,
                   window_s=duration / 4),
        ]
        scenario = Scenario("decreasing", duration, streams)
        # Guard against a vacuous pass: some queue must really see a
        # job whose deadline is tighter than the one ahead of it.  A
        # short, lightly loaded draw (seed 713, load 0.5, one device)
        # can produce none; such an example is discarded, not passed.
        last: dict = {}
        decreases = 0
        for chunk in scenario.arrivals(seed):
            for t, s, tenant in zip(chunk.arrival_s.tolist(),
                                    chunk.stream_index.tolist(),
                                    chunk.tenant_index.tolist()):
                stream = streams[s]
                deadline = t + (stream.slo_ms / 1e3
                                if stream.slo_ms is not None
                                else stream.window_s)
                key = (stream.job_class.name, tenant)
                if key in last and deadline < last[key]:
                    decreases += 1
                last[key] = deadline
        assume(decreases > 0)
        simulator = ServingSimulator(config, num_devices=devices,
                                     max_batch=max_batch)
        des = simulator.run(scenario, seed=seed, policy=policy)
        fast = simulator.run(scenario, seed=seed, policy=policy,
                             engine="fast")
        assert_reports_identical(fast, des)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_overlapping_key_sets_fall_back(self, config, seed):
        """Distinct classes sharing key ids under one tenant prefix
        defeat the set-granularity cache; the fast engine must detect
        this and stay exact via the per-key fallback."""
        classes = build_job_classes(config)
        base = classes["lr_inference"]
        overlap = JobClass("overlap", cycles=base.cycles * 2,
                           key_ids=base.key_ids[: max(
                               1, len(base.key_ids) // 2)],
                           bytes_per_key=base.bytes_per_key)
        scenario = Scenario("overlap", 0.15, [
            Stream(base, rate_per_s=600.0, num_tenants=2,
                   tenant_prefix="user"),
            Stream(overlap, rate_per_s=400.0, num_tenants=2,
                   tenant_prefix="user"),
        ])
        simulator = ServingSimulator(config, num_devices=2,
                                     max_batch=4)
        des = simulator.run(scenario, seed=seed)
        fast = simulator.run(scenario, seed=seed, engine="fast")
        assert_reports_identical(fast, des)

    @pytest.mark.parametrize("policy", ["fifo", "edf"])
    def test_tenant_names_collide_across_prefixes(self, config, policy):
        """Prefix "t" with 12 tenants and prefix "t1" both name a
        "t10" and a "t11", which request overlapping key sets; the
        working-set check must go by tenant name, not by prefix."""
        classes = build_job_classes(config)
        training = classes["lr_training"]
        scenario = Scenario("collide", 2.0, [
            Stream(classes["lr_inference"], rate_per_s=300.0,
                   num_tenants=12, tenant_prefix="t"),
            Stream(training, rate_per_s=300.0, num_tenants=3,
                   tenant_prefix="t1"),
        ])
        simulator = ServingSimulator(
            config, num_devices=2, key_cache_bytes=2 * training.key_bytes)
        des = simulator.run(scenario, seed=3, policy=policy)
        fast = simulator.run(scenario, seed=3, policy=policy,
                             engine="fast")
        assert_reports_identical(fast, des)

    @pytest.mark.parametrize("policy",
                             ["fifo", "edf", "deferrable-window"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_unequal_classes_share_a_name(self, config, policy, seed):
        """Queues are keyed by class *name*: two streams whose classes
        share a name but not cycles or stripe width feed one queue,
        and each batch is priced by its head job's own class."""
        base = build_job_classes(config)["lr_inference"]
        wide = dataclasses.replace(base, cycles=3 * base.cycles,
                                   num_fpgas=2)
        slo_ms = default_interactive_slo_ms(base, config)
        scenario = Scenario("one-name", 0.3, [
            Stream(base, rate_per_s=500.0, num_tenants=2,
                   tenant_prefix="user", slo_ms=slo_ms),
            Stream(wide, rate_per_s=150.0, num_tenants=2,
                   tenant_prefix="user", slo_ms=2 * slo_ms),
        ])
        simulator = ServingSimulator(config, num_devices=4, max_batch=6)
        des = simulator.run(scenario, seed=seed, policy=policy)
        fast = simulator.run(scenario, seed=seed, policy=policy,
                             engine="fast")
        assert des.jobs_done > 0
        assert_reports_identical(fast, des)


class TestRecorderParity:
    """Observation hooks fire identically from both engines."""

    def test_metrics_recorder(self, config):
        scenario = build_slo_scenario(config, duration_s=0.2,
                                      target_load=1.2)
        simulator = ServingSimulator(config, max_batch=8)
        des_rec = MetricsRecorder(window_s=0.01)
        fast_rec = MetricsRecorder(window_s=0.01)
        des = simulator.run(scenario, seed=0, policy="edf",
                            recorder=des_rec)
        fast = simulator.run(scenario, seed=0, policy="edf",
                             recorder=fast_rec, engine="fast")
        assert_reports_identical(fast, des)
        assert fast_rec.to_dict() == des_rec.to_dict()

    def test_timeline_recorder(self, config):
        scenario = build_scenarios(config, duration_s=0.1,
                                   target_load=0.9)["mixed"]
        simulator = ServingSimulator(config, max_batch=4)
        des_rec = TimelineRecorder()
        fast_rec = TimelineRecorder()
        simulator.run(scenario, seed=3, recorder=des_rec)
        simulator.run(scenario, seed=3, recorder=fast_rec,
                      engine="fast")
        assert fast_rec.to_dict() == des_rec.to_dict()


class TestSetKeyCache:
    """The working-set LRU vs the per-key LRU, step for step."""

    CLASSES = [
        JobClass("a", cycles=1, key_ids=("a0", "a1", "a2"),
                 bytes_per_key=100),
        JobClass("b", cycles=1, key_ids=("b0", "b1"),
                 bytes_per_key=300),
        JobClass("z", cycles=1, key_ids=("z0", "z1"), bytes_per_key=0),
        JobClass("big", cycles=1,
                 key_ids=tuple(f"g{i}" for i in range(40)),
                 bytes_per_key=100),
        JobClass("none", cycles=1, key_ids=(), bytes_per_key=100),
    ]
    FIELDS = ("hits", "misses", "bytes_loaded", "evictions",
              "bytes_evicted", "resident_bytes")

    def _drive(self, steps, capacity):
        per_key, per_set = KeyCache(capacity), SetKeyCache(capacity)
        for step in steps:
            if step is None:
                # A fault wipes the board's HBM.
                assert per_set.drop_all() == per_key.drop_all()
            else:
                tenant, jc = f"t{step[0]}", self.CLASSES[step[1]]
                assert (per_set.peek_miss_bytes(tenant, jc)
                        == per_key.peek_miss_bytes(tenant, jc))
                assert (per_set.request(tenant, jc)
                        == per_key.request(tenant, jc))
            key_stats, set_stats = per_key.stats(), per_set.stats()
            for field in self.FIELDS:
                assert key_stats[field] == set_stats[field], field
            for cache, stats in ((per_key, key_stats), (per_set, set_stats)):
                assert cache.counters() == tuple(stats.values())
            assert per_set.resident_bytes == per_key.resident_bytes
            assert per_set.hit_rate == per_key.hit_rate
            assert self._residency(per_set) == self._residency(per_key)

    def _residency(self, cache):
        """Resident ``((tenant, key_ids), count, bytes_per_key)`` runs
        in LRU order: per-key entries grouped by the set they belong
        to (every key id here names its class), working-set entries
        as they are."""
        if isinstance(cache, SetKeyCache):
            return [(entry, count, size)
                    for entry, (count, size) in cache._resident.items()]
        key_sets = {key: jc.key_ids for jc in self.CLASSES
                    for key in jc.key_ids}
        runs = []
        for (tenant, key), size in cache._resident.items():
            entry = (tenant, key_sets[key])
            if runs and runs[-1][0] == entry:
                runs[-1][1] += 1
            else:
                runs.append([entry, 1, size])
        return [tuple(run) for run in runs]

    @given(steps=st.lists(
               st.one_of(st.none(),
                         st.tuples(st.integers(0, 3), st.integers(0, 4))),
               max_size=200),
           capacity=st.sampled_from([1, 350, 900, 2500, 10**6]))
    @settings(max_examples=60, deadline=None)
    def test_equivalence(self, steps, capacity):
        """Any sequence of requests and fault wipes — partial
        evictions, zero-byte keys, empty key sets and the oversized
        pinned set ("big" outsizes most capacities) included — returns
        the same bytes, previews the same misses, keeps every counter
        equal and keeps the same keys resident in the same LRU
        order."""
        self._drive(steps, capacity)

    def test_peek_matches_request(self):
        self._drive([(0, 0), (1, 1), (0, 3), (0, 0), None, (1, 1),
                     (2, 2), (0, 0)], 900)


class TestKeyCacheSelection:
    """``key_caches`` picks working-set caches only where exact."""

    @staticmethod
    def _kind(scenario, pool_changes=False):
        caches = key_caches(ServingSimulator(FabConfig(), num_devices=3),
                            scenario, pool_changes=pool_changes)
        assert len(caches) == 3
        kinds = {type(cache) for cache in caches}
        assert len(kinds) == 1
        return kinds.pop()

    @staticmethod
    def _scenario(*streams):
        return Scenario("select", 0.1, [
            Stream(jc, rate_per_s=100.0, num_tenants=n, tenant_prefix=p)
            for jc, n, p in streams])

    def _overlapping(self, config):
        classes = build_job_classes(config)
        inference, training = (classes["lr_inference"],
                               classes["lr_training"])
        assert set(inference.key_ids) & set(training.key_ids)
        return inference, training

    def test_disjoint_prefixes_use_working_sets(self, config):
        inference, training = self._overlapping(config)
        assert self._kind(self._scenario(
            (inference, 4, "user"), (training, 4, "trainer"))) \
            is SetKeyCache

    def test_overlapping_sets_under_one_name(self, config):
        inference, training = self._overlapping(config)
        assert self._kind(self._scenario(
            (inference, 4, "user"), (training, 1, "user"))) is KeyCache

    def test_names_collide_across_prefixes(self, config):
        """Prefix "t" index 10 and prefix "t1" index 0 are both "t10"."""
        inference, training = self._overlapping(config)
        assert self._kind(self._scenario(
            (inference, 11, "t"), (training, 3, "t1"))) is KeyCache
        assert self._kind(self._scenario(
            (inference, 10, "t"), (training, 3, "t1"))) is SetKeyCache

    def test_same_key_ids_with_two_sizes(self):
        small = JobClass("small", cycles=1, key_ids=("k0", "k1"),
                         bytes_per_key=100)
        large = dataclasses.replace(small, name="large",
                                    bytes_per_key=200)
        assert self._kind(self._scenario(
            (small, 2, "a"), (large, 2, "b"))) is KeyCache
        assert self._kind(self._scenario(
            (small, 2, "a"), (small, 2, "b"))) is SetKeyCache

    def test_repeated_key_id(self):
        repeated = JobClass("rep", cycles=1, key_ids=("k0", "k0"),
                            bytes_per_key=100)
        assert self._kind(self._scenario((repeated, 1, "a"))) is KeyCache

    def test_pool_changes_with_a_striped_class(self, config):
        scenario = build_slo_scenario(config, num_devices=3,
                                      duration_s=0.1, training_stripe=2)
        assert self._kind(scenario) is SetKeyCache
        assert self._kind(scenario, pool_changes=True) is KeyCache
        unstriped = build_slo_scenario(config, num_devices=3,
                                       duration_s=0.1)
        assert self._kind(unstriped, pool_changes=True) is SetKeyCache


class TestEngineContract:
    def test_unknown_engine(self, config):
        scenario = build_scenarios(config, duration_s=0.05)["mixed"]
        with pytest.raises(ValueError, match="unknown engine"):
            ServingSimulator(config).run(scenario, engine="turbo")

    def test_des_rejects_vectorized_arrivals(self, config):
        scenario = build_scenarios(config, duration_s=0.05)["mixed"]
        with pytest.raises(ValueError, match="DES engine"):
            ServingSimulator(config).run(scenario,
                                         arrival_mode="vectorized")

    def test_fast_rejects_policy_instances(self, config):
        from repro.runtime.policies import make_policy
        scenario = build_scenarios(config, duration_s=0.05)["mixed"]
        simulator = ServingSimulator(config)
        with pytest.raises(ValueError, match="policy name"):
            simulator.run(scenario, policy=make_policy("fifo"),
                          engine="fast")
        with pytest.raises(ValueError, match="unknown policy"):
            simulator.run(scenario, policy="lifo", engine="fast")

    def test_run_fast_entry_point(self, config):
        """The direct entry point matches the dispatching one."""
        scenario = build_scenarios(config, duration_s=0.1)["mixed"]
        simulator = ServingSimulator(config)
        via_run = simulator.run(scenario, seed=1, engine="fast")
        direct = run_fast(simulator, scenario, seed=1)
        assert_reports_identical(direct, via_run)

    def test_vectorized_arrivals_statistics(self, config):
        """Vectorized arrivals draw a different sequence (numpy rng),
        but the load they carry matches: job counts within a few
        percent and the same workload mix."""
        scenario = build_slo_scenario(config, duration_s=2.0,
                                      target_load=1.0)
        simulator = ServingSimulator(config, max_batch=16)
        exact = simulator.run(scenario, seed=0, engine="fast")
        vec = simulator.run(scenario, seed=0, engine="fast",
                            arrival_mode="vectorized")
        n_exact = exact.jobs_done + exact.rejected_jobs
        n_vec = vec.jobs_done + vec.rejected_jobs
        assert n_vec == pytest.approx(n_exact, rel=0.10)
        assert ({w.name for w in vec.per_workload}
                == {w.name for w in exact.per_workload})


POLICY_NAMES = ["fifo", "edf", "deferrable-window"]


class TestSharedReportEdgeCases:
    """Corner cases of the one report builder, on both engines."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_horizon(self, config, engine, policy):
        scenario = build_slo_scenario(config, duration_s=0.0)
        report = ServingSimulator(config).run(scenario, policy=policy,
                                              engine=engine)
        assert report.jobs_done == 0
        assert report.rejected_jobs == 0
        assert report.per_workload == []
        assert report.slo_attainment is None
        assert report.per_tenant_slo == ()
        assert report.makespan_s == 0.0
        assert report.goodput_jps == 0.0

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_slo_rejects_every_job(self, config, engine, policy):
        """A 1 ns SLO no board can meet: admission control rejects
        every job, so each class is reported with no completions and
        NaN percentiles; fifo admits everything and misses every
        deadline.  Either way attainment is exactly 0."""
        scenario = build_slo_scenario(config, duration_s=0.02,
                                      interactive_fraction=1.0,
                                      interactive_slo_ms=1e-6)
        simulator = ServingSimulator(config, num_devices=2)
        other = ENGINES[1 - ENGINES.index(engine)]
        report = simulator.run(scenario, seed=3, policy=policy,
                               engine=engine)
        assert_reports_identical(
            report, simulator.run(scenario, seed=3, policy=policy,
                                  engine=other))
        assert report.slo_attainment == 0.0
        assert report.goodput_jps == 0.0
        assert report.per_workload
        for stats in report.per_workload:
            assert stats.slo_attainment == 0.0
            if policy == "fifo":
                assert stats.jobs > 0 and stats.rejected == 0
            else:
                assert stats.jobs == 0 and stats.rejected > 0
                assert stats.throughput_jps == 0.0
                assert all(math.isnan(v) for v in (
                    stats.p50_ms, stats.p95_ms, stats.p99_ms,
                    stats.mean_ms))
        if policy != "fifo":
            assert report.jobs_done == 0
            assert all(attained == 0.0
                       for _, attained in report.per_tenant_slo)
