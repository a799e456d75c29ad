"""Tests for the autoscaling sweep driver."""

import json

import pytest

from repro.core import FabConfig
from repro.experiments.serve_sweep import (SweepPoint, default_slo_p99_ms,
                                           run_sweep)
from repro.runtime import build_job_classes


@pytest.fixture(scope="module")
def config():
    return FabConfig()


@pytest.fixture(scope="module")
def small_sweep(config):
    return run_sweep(config, devices=(2, 4), cache_fractions=(0.25,),
                     tenants=(2,), loads=(0.4, 0.8), duration_s=0.4,
                     seed=1, workers=1)


class TestSweep:
    def test_grid_is_complete(self, small_sweep):
        assert len(small_sweep.outcomes) == 4
        points = {o.point for o in small_sweep.outcomes}
        assert points == {SweepPoint(d, 0.25, 2, load)
                          for d in (2, 4) for load in (0.4, 0.8)}

    def test_every_point_served_jobs(self, small_sweep):
        for outcome in small_sweep.outcomes:
            assert outcome.jobs > 0
            assert outcome.makespan_s > 0
            assert outcome.cost_device_ms_per_job > 0

    def test_best_is_cheapest_feasible(self, small_sweep):
        best = small_sweep.best
        assert best is not None and best.feasible
        for outcome in small_sweep.outcomes:
            if outcome.feasible:
                assert (best.cost_device_ms_per_job
                        <= outcome.cost_device_ms_per_job)

    def test_deterministic(self, config, small_sweep):
        again = run_sweep(config, devices=(2, 4),
                          cache_fractions=(0.25,), tenants=(2,),
                          loads=(0.4, 0.8), duration_s=0.4, seed=1,
                          workers=1)
        assert again.outcomes == small_sweep.outcomes

    def test_parallel_matches_sequential(self, config, small_sweep):
        """Grid points are independent: worker count is invisible."""
        parallel = run_sweep(config, devices=(2, 4),
                             cache_fractions=(0.25,), tenants=(2,),
                             loads=(0.4, 0.8), duration_s=0.4, seed=1,
                             workers=2)
        assert parallel.outcomes == small_sweep.outcomes

    def test_empty_grid_rejected(self, config):
        with pytest.raises(ValueError):
            run_sweep(config, devices=(), duration_s=0.1, workers=1)
        # The shared sweep checks: same messages as every other sweep.
        with pytest.raises(ValueError, match="^duration_s: must be positive$"):
            run_sweep(config, duration_s=0, workers=1)
        with pytest.raises(ValueError, match="^devices: must be >= 1$"):
            run_sweep(config, devices=(0,), duration_s=0.1, workers=1)

    def test_json_artifact_round_trips(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.json"
        small_sweep.save_json(str(path))
        data = json.loads(path.read_text())
        assert data["grid_points"] == 4
        assert data["best"]["point"] == {
            "devices": small_sweep.best.point.devices,
            "cache_fraction": small_sweep.best.point.cache_fraction,
            "tenants": small_sweep.best.point.tenants,
            "load": small_sweep.best.point.load,
        }
        assert len(data["outcomes"]) == 4

    def test_experiment_result_reports_best(self, small_sweep):
        result = small_sweep.to_experiment_result()
        assert len(result.rows) == 4
        assert "cost-optimal" in result.notes
        assert small_sweep.best.point.label() in result.notes

    def test_slo_default_scales_with_workload(self, config):
        classes = build_job_classes(config)
        slo = default_slo_p99_ms(classes, config)
        slowest_ms = max(c.seconds(config) for c in classes.values()) * 1e3
        assert slo == pytest.approx(8 * slowest_ms)

    def test_more_devices_cut_tails_under_load(self, small_sweep):
        """Within one load column, the bigger pool has no worse p99."""
        by_point = {o.point: o for o in small_sweep.outcomes}
        for load in (0.4, 0.8):
            small = by_point[SweepPoint(2, 0.25, 2, load)]
            large = by_point[SweepPoint(4, 0.25, 2, load)]
            assert large.worst_p99_ms <= small.worst_p99_ms
