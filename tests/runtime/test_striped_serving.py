"""Striped job classes in the serving simulator.

The load-bearing regression: a job striped across k boards with the
communication cost zeroed is *the same computation* as its one-board
shard — so a pool of k boards serving striped jobs must produce the
same report as one board serving shard jobs, and that one-board run
must match its golden, the report of the original pre-striping event
loop (``merged/seed11`` in ``data/golden_fifo_baseline.json``).
The one deliberate difference is key traffic: switching keys replicate
into every gang board's HBM, so the striped pool loads exactly k times
the bytes.
"""

import pathlib
import sys

import pytest

from repro.core import FabConfig
from repro.runtime import JobClass, Scenario, ServingSimulator, Stream

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _golden_grid import (FIFO_BASELINE_PATH, STRIPE,  # noqa: E402
                          assert_matches_golden, batch_plan,
                          batch_scenario, batch_trace, load_golden,
                          normalize, shard_class as one_board_shard)

CONFIG = FabConfig()
GOLDEN = load_golden(FIFO_BASELINE_PATH)
MERGED = "merged/seed11"


@pytest.fixture(scope="module")
def striped_class() -> JobClass:
    return JobClass.from_trace(batch_trace(), CONFIG, num_fpgas=STRIPE,
                               plan=batch_plan(), comm_scale=0.0)


@pytest.fixture(scope="module")
def shard_class() -> JobClass:
    """One board's shard of the same batch, lowered single-board."""
    return one_board_shard()


class TestStripedEqualsMergedSingleBoard:
    """Satellite: striped k-board serving == k merged one-board runs
    when communication is zeroed."""

    def _reports(self, striped_class, shard_class):
        striped_sim = ServingSimulator(CONFIG, num_devices=STRIPE)
        striped = striped_sim.run(batch_scenario(striped_class, "striped"),
                                  seed=11)
        single_sim = ServingSimulator(CONFIG, num_devices=1)
        merged = single_sim.run(batch_scenario(shard_class, "merged"),
                                seed=11)
        assert_matches_golden(GOLDEN, MERGED, normalize(merged))
        return striped, merged

    def test_same_cycles_per_job(self, striped_class, shard_class):
        """Zero comm + even shards: the gang finishes exactly when one
        board finishes its shard."""
        assert striped_class.cycles == shard_class.cycles
        assert striped_class.num_fpgas == STRIPE
        assert striped_class.key_ids == shard_class.key_ids

    def test_report_matches_baseline_single_board(self, striped_class,
                                                  shard_class):
        striped, merged = self._reports(striped_class, shard_class)
        assert striped.makespan_s == merged.makespan_s
        assert striped.jobs_done == merged.jobs_done
        assert striped.batches == merged.batches
        assert striped.mean_batch_size == merged.mean_batch_size
        assert striped.device_utilization == merged.device_utilization
        assert striped.key_hit_rate == merged.key_hit_rate
        got = striped.per_workload[0]
        want = merged.per_workload[0]
        assert (got.jobs, got.p50_ms, got.p95_ms, got.p99_ms,
                got.mean_ms) == (want.jobs, want.p50_ms, want.p95_ms,
                                 want.p99_ms, want.mean_ms)

    def test_key_bytes_replicate_exactly_k_times(self, striped_class,
                                                 shard_class):
        """The ONE intended difference: every gang board loads its own
        replica of the switching keys."""
        striped, merged = self._reports(striped_class, shard_class)
        assert striped.key_bytes_loaded == \
            STRIPE * merged.key_bytes_loaded


class TestStripedDispatch:
    def test_stripe_wider_than_pool_rejected(self, striped_class):
        sim = ServingSimulator(CONFIG, num_devices=STRIPE - 2)
        with pytest.raises(ValueError, match="stripes over"):
            sim.run(batch_scenario(striped_class, "toowide"), seed=0)

    def test_invalid_num_fpgas(self):
        with pytest.raises(ValueError):
            JobClass("x", 1, (), 1, num_fpgas=0)

    def test_mixed_striped_and_single_jobs_complete(self,
                                                    striped_class,
                                                    shard_class):
        """Gang jobs and one-board jobs share the pool without losing
        anyone: every arrival completes with ordered tails."""
        scenario = Scenario("mix", 0.4, [
            Stream(striped_class, rate_per_s=60.0, num_tenants=2,
                   tenant_prefix="gang"),
            Stream(shard_class, rate_per_s=120.0, num_tenants=2,
                   tenant_prefix="solo"),
        ])
        report = ServingSimulator(CONFIG, num_devices=8).run(scenario,
                                                             seed=3)
        assert report.jobs_done == sum(w.jobs
                                       for w in report.per_workload)
        assert report.jobs_done > 0
        names = {w.name for w in report.per_workload}
        assert names == {striped_class.name, shard_class.name}
        for w in report.per_workload:
            assert 0 < w.p50_ms <= w.p95_ms <= w.p99_ms

    def test_jobs_counted_once_pool_wide(self, striped_class):
        """Regression: gang members must not each claim the batch —
        summing per-device jobs_done keeps the baseline's semantics
        (every job exactly once, credited to the gang master)."""
        sim = ServingSimulator(CONFIG, num_devices=STRIPE)
        scenario = batch_scenario(striped_class, "count")
        jobs = scenario.generate(seed=2)
        report = sim.run(scenario, seed=2)
        assert report.jobs_done == len(jobs)
        assert sum(report.per_device_jobs) == report.jobs_done

    def test_gang_occupies_all_boards(self, striped_class):
        """With jobs striped across the whole pool, devices are busy
        the same amount: the gang always moves together."""
        sim = ServingSimulator(CONFIG, num_devices=STRIPE)
        scenario = batch_scenario(striped_class, "gang")
        jobs = scenario.generate(seed=2)
        assert jobs, "scenario must produce arrivals"
        report = sim.run(scenario, seed=2)
        assert report.jobs_done == len(jobs)
        # All boards saw identical service: utilization equals one
        # board's busy share exactly (no stragglers, no idle boards).
        assert report.device_utilization > 0
