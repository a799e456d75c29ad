"""Tests for the multi-tenant serving simulator."""

import dataclasses
import hashlib
import json
import pathlib
import random
import sys

import pytest

from repro.core import FabConfig
from repro.runtime import (Job, JobClass, KeyCache, Scenario,
                           ServingSimulator, Stream, build_job_classes,
                           build_scenarios, lr_inference_trace, percentile)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _golden_grid import (FIFO_BASELINE_PATH,  # noqa: E402
                          assert_matches_golden, fifo_runs,
                          load_golden, report_dict)

GOLDEN = load_golden(FIFO_BASELINE_PATH)
POINTS = dict(fifo_runs())

#: SHA-256 of the JSON list of per-step ``(miss_bytes, resident_bytes)``
#: the original quadratic LRU returned on the seeded 400-request stream.
BASELINE_CACHE_STEPS_SHA256 = (
    "e29aa34817b4bd66f5f9151d002e2798ac5f7e9f86bac25ccf7023ffc91e4cd7")


@pytest.fixture(scope="module")
def config():
    return FabConfig()


@pytest.fixture(scope="module")
def job_classes(config):
    return build_job_classes(config)


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile([7.0], 95) == 7.0

    def test_empty(self):
        assert percentile([], 50) != percentile([], 50)  # NaN


class TestKeyCache:
    def test_hits_after_first_load(self, job_classes):
        job = job_classes["lr_inference"]
        cache = KeyCache(capacity_bytes=10 * job.key_bytes)
        assert cache.request("t0", job) == job.key_bytes
        assert cache.request("t0", job) == 0
        assert cache.hits == len(job.key_ids)

    def test_tenants_do_not_share_keys(self, job_classes):
        job = job_classes["lr_inference"]
        cache = KeyCache(capacity_bytes=10 * job.key_bytes)
        cache.request("t0", job)
        assert cache.request("t1", job) == job.key_bytes

    def test_lru_eviction_under_pressure(self, job_classes):
        job = job_classes["lr_inference"]
        # Room for one tenant's working set only.
        cache = KeyCache(capacity_bytes=job.key_bytes)
        cache.request("t0", job)
        cache.request("t1", job)          # evicts t0
        assert cache.request("t1", job) == 0
        assert cache.request("t0", job) == job.key_bytes
        assert cache.resident_bytes <= cache.capacity_bytes

    def test_working_set_larger_than_capacity(self, job_classes):
        job = job_classes["lr_inference"]
        cache = KeyCache(capacity_bytes=job.bytes_per_key)
        # Loads everything; current request's keys are never evicted
        # mid-request, so residency may transiently exceed capacity.
        assert cache.request("t0", job) == job.key_bytes

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            KeyCache(0)

    def test_eviction_is_true_lru(self):
        """Regression: the victim must be the least-recently-*used*
        entry, not the least-recently-*inserted* one."""
        one_key = JobClass("k", 100, ("rot1",), 10)
        cache = KeyCache(capacity_bytes=20)     # room for two keys
        cache.request("t0", one_key)            # resident: t0
        cache.request("t1", one_key)            # resident: t0, t1
        cache.request("t0", one_key)            # hit refreshes t0
        assert cache.hits == 1
        cache.request("t2", one_key)            # evicts t1, NOT t0
        assert cache.request("t0", one_key) == 0           # still hot
        assert cache.request("t1", one_key) == one_key.key_bytes
        assert cache.resident_bytes <= cache.capacity_bytes

    def test_eviction_order_walks_lru_front(self):
        """Evicting a multi-key working set removes coldest-first."""
        one_key = JobClass("k", 100, ("rot1",), 10)
        big = JobClass("b", 100, ("rot1", "rot2", "rot3"), 10)
        cache = KeyCache(capacity_bytes=30)
        for tenant in ("t0", "t1", "t2"):
            cache.request(tenant, one_key)
        cache.request("t1", one_key)            # LRU order: t0, t2, t1
        cache.request("t3", big)                # needs all 30 bytes
        assert cache.request("t3", big) == 0    # pins survived
        # The three singles were evicted; reloading each misses.
        for tenant in ("t0", "t2", "t1"):
            assert cache.request(tenant, one_key) == one_key.key_bytes

    def test_resident_bytes_tracks_contents(self, job_classes):
        job = job_classes["lr_inference"]
        cache = KeyCache(capacity_bytes=10 * job.key_bytes)
        assert cache.resident_bytes == 0
        cache.request("t0", job)
        assert cache.resident_bytes == job.key_bytes
        cache.request("t0", job)                # all hits: unchanged
        assert cache.resident_bytes == job.key_bytes

    def test_matches_baseline_cache(self, job_classes):
        """The O(1) LRU reproduces what the original quadratic cache
        returned on a seeded 400-request stream: every step's miss and
        resident bytes, the counters and the final LRU order."""
        classes = list(job_classes.values())
        cache = KeyCache(capacity_bytes=3 * classes[0].key_bytes)
        rng = random.Random(42)
        steps = []
        for _ in range(400):
            tenant = f"t{rng.randrange(6)}"
            job = rng.choice(classes)
            steps.append((cache.request(tenant, job), cache.resident_bytes))
        digest = hashlib.sha256(json.dumps(steps).encode()).hexdigest()
        assert digest == BASELINE_CACHE_STEPS_SHA256
        assert cache.stats() == {
            "hits": 1595, "misses": 2767, "bytes_loaded": 235014193152,
            "evictions": 2740, "bytes_evicted": 232720957440,
            "resident_bytes": 2293235712}
        lr_keys = ("rot1", "rot2", "rot4", "rot8", "rot16", "rot32",
                   "rot64", "rot128", "rot256", "conj", "relin")
        assert list(cache._resident) == (
            [("t0", k) for k in ("rot256", "rot512", "rot1024", "rot2048",
                                 "relin")]
            + [("t1", k) for k in lr_keys] + [("t5", k) for k in lr_keys])


class TestJobClass:
    def test_from_trace(self, config):
        job = JobClass.from_trace(lr_inference_trace(), config)
        assert job.cycles > 0
        assert "relin" in job.key_ids
        assert job.seconds(config) == pytest.approx(
            job.cycles / config.clock_hz)


class TestJob:
    def test_undeclared_attribute_raises(self, job_classes):
        """``Job`` is slotted: a misspelt field is an error, not a new
        attribute that every reader silently ignores."""
        job = Job(0, job_classes["lr_inference"], "t0", 0.5)
        with pytest.raises(AttributeError):
            job.shed_reson = "x"
        job.shed_reason = "retry_budget"
        assert job.shed_reason == "retry_budget"

    def test_replace_and_asdict(self, job_classes):
        job = Job(7, job_classes["lr_inference"], "t0", 0.5,
                  deadline_s=0.75)
        retried = dataclasses.replace(job, retries=2)
        assert (retried.job_id, retried.retries, retried.deadline_s) == (
            7, 2, 0.75)
        assert job.retries == 0
        fields = dataclasses.asdict(job)
        assert list(fields) == [f.name for f in dataclasses.fields(Job)]
        assert fields["deadline_s"] == 0.75
        assert fields["shed_reason"] is None
        assert retried.effective_deadline_s == 0.75


class TestSimulator:
    def test_deterministic_per_seed(self, config, job_classes):
        scenario = Scenario("det", 0.2, [
            Stream(job_classes["lr_inference"], rate_per_s=200.0,
                   num_tenants=4)])
        sim = ServingSimulator(config, num_devices=2)
        a = sim.run(scenario, seed=7)
        b = sim.run(scenario, seed=7)
        c = sim.run(scenario, seed=8)
        assert a.jobs_done == b.jobs_done
        assert a.makespan_s == b.makespan_s
        assert a.workload("lr_inference").p99_ms == \
            b.workload("lr_inference").p99_ms
        assert c.jobs_done != a.jobs_done or c.makespan_s != a.makespan_s

    def test_all_jobs_complete_with_ordered_tails(self, config,
                                                  job_classes):
        scenario = Scenario("tails", 0.2, [
            Stream(job_classes["lr_inference"], rate_per_s=300.0,
                   num_tenants=2)])
        report = ServingSimulator(config, num_devices=4).run(scenario,
                                                             seed=1)
        stats = report.workload("lr_inference")
        assert report.jobs_done == stats.jobs > 0
        assert 0 < stats.p50_ms <= stats.p95_ms <= stats.p99_ms
        assert 0 < report.device_utilization <= 1.0

    def test_more_devices_serve_faster(self, config, job_classes):
        scenario = Scenario("scale", 0.2, [
            Stream(job_classes["lr_inference"], rate_per_s=400.0,
                   num_tenants=2)])
        one = ServingSimulator(config, num_devices=1).run(scenario, seed=2)
        four = ServingSimulator(config, num_devices=4).run(scenario,
                                                           seed=2)
        assert four.makespan_s < one.makespan_s
        assert four.workload("lr_inference").p99_ms < \
            one.workload("lr_inference").p99_ms

    def test_batching_amortizes_key_loads(self, config, job_classes):
        scenario = Scenario("batching", 0.2, [
            Stream(job_classes["lr_inference"], rate_per_s=400.0,
                   num_tenants=4)])
        serial = ServingSimulator(config, num_devices=2,
                                  max_batch=1).run(scenario, seed=3)
        batched = ServingSimulator(config, num_devices=2,
                                   max_batch=8).run(scenario, seed=3)
        assert batched.key_bytes_loaded < serial.key_bytes_loaded
        assert batched.mean_batch_size > serial.mean_batch_size == 1.0
        assert batched.workload("lr_inference").p99_ms < \
            serial.workload("lr_inference").p99_ms

    def test_bigger_key_cache_raises_hit_rate(self, config, job_classes):
        job = job_classes["lr_inference"]
        # Unbatched dispatch with repeat per-tenant traffic: a cache
        # holding every tenant's working set hits from the second
        # request on; a one-working-set cache thrashes between tenants.
        scenario = Scenario("cache", 0.5, [
            Stream(job, rate_per_s=300.0, num_tenants=8)])
        small = ServingSimulator(
            config, num_devices=2, max_batch=1,
            key_cache_bytes=job.key_bytes).run(scenario, seed=4)
        large = ServingSimulator(
            config, num_devices=2, max_batch=1,
            key_cache_bytes=16 * job.key_bytes).run(scenario, seed=4)
        assert large.key_hit_rate > small.key_hit_rate
        assert large.key_bytes_loaded < small.key_bytes_loaded

    def test_empty_scenario(self, config, job_classes):
        scenario = Scenario("quiet", 0.0, [
            Stream(job_classes["lr_inference"], rate_per_s=1.0)])
        report = ServingSimulator(config).run(scenario)
        assert report.jobs_done == 0
        assert report.makespan_s == 0.0

    def test_invalid_parameters(self, config):
        with pytest.raises(ValueError):
            ServingSimulator(config, num_devices=0)
        with pytest.raises(ValueError):
            ServingSimulator(config, max_batch=0)
        with pytest.raises(ValueError):
            Stream(JobClass("x", 1, (), 1), rate_per_s=0.0)


class TestFastLoopMatchesBaseline:
    """The heap-driven event loop reproduces the reports of the
    original frontier-scanning loop, pinned as goldens (the canned
    scenarios are pinned in ``test_policy_fifo_regression.py``)."""

    def test_tenant_heavy_small_cache(self):
        """Contended regime: many queues, constant eviction."""
        key = "contended/seed9"
        assert_matches_golden(GOLDEN, key, report_dict(POINTS[key]))

    def test_single_device_serial_batches(self):
        key = "serial/seed5"
        assert_matches_golden(GOLDEN, key, report_dict(POINTS[key]))


class TestScenarios:
    def test_build_scenarios_shapes(self, config):
        scenarios = build_scenarios(config, num_devices=2,
                                    duration_s=0.1)
        assert set(scenarios) >= {"interactive", "batch", "analytics",
                                  "mixed"}
        assert len(scenarios["mixed"].streams) >= 3

    def test_mixed_serves_three_workloads(self, config):
        scenarios = build_scenarios(config, num_devices=2,
                                    duration_s=0.4)
        report = ServingSimulator(config, num_devices=2).run(
            scenarios["mixed"], seed=5)
        names = {w.name for w in report.per_workload}
        assert names == {"lr_inference", "lr_training", "analytics"}
        text = report.format()
        assert "p99" in text and "key cache" in text
        table = report.to_experiment_result().format()
        assert "jobs_per_s" in table
