"""MetricsRecorder: windowed series must integrate back to ground truth.

The central property (hypothesis-driven): per-board utilization is
busy-seconds apportioned *exactly* across windows, so summing a
board's utilization series times the window width reconstructs its
``DeviceState.busy_s`` to float round-off — for any window width,
scenario shape, and seed.  The same exactness holds for the jobs,
cost and key-traffic series against the run report, under faults and
autoscaling too, where a killed batch burns board time, key loads and
price but completes no job.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import FabConfig
from repro.obs import MetricsRecorder, TimelineRecorder, compose, window_index
from repro.runtime.policies import PriceSignal
from repro.runtime.serving import (JobClass, Scenario, ServingSimulator,
                                   Stream, build_slo_scenario)

CONFIG = FabConfig()

#: Hand-made classes: cheap to simulate (no lowering), exercise cache
#: misses (two keys each, tiny bytes) and distinct service times.
TOY_A = JobClass("toy_a", 50_000, ("k1", "k2"), 1 << 20)
TOY_B = JobClass("toy_b", 120_000, ("k3",), 1 << 21)


def _toy_scenario(rate_scale: float, tenants: int,
                  duration_s: float) -> Scenario:
    base = rate_scale / TOY_A.seconds(CONFIG)
    return Scenario("toy", duration_s, [
        Stream(TOY_A, base, num_tenants=tenants),
        Stream(TOY_B, base / 3, num_tenants=max(1, tenants // 2),
               tenant_prefix="b"),
    ])


def _assert_integrates_back(data, report):
    """Every additive series reconciles with the run's report."""
    wins, w = data["windows"], data["window_s"]
    for board, util in zip(data["boards"], wins["board_util"]):
        assert sum(util) * w == pytest.approx(
            data["device_busy_s"][board], rel=1e-9, abs=1e-12)
    assert sum(wins["jobs_done"]) == report.jobs_done
    assert sum(wins["key_bytes_loaded"]) == report.key_bytes_loaded
    assert wins["cost_cum"][-1] == pytest.approx(
        report.cost_price_units, rel=1e-12, abs=1e-15)


@given(window_s=st.floats(min_value=1e-4, max_value=0.2),
       rate_scale=st.floats(min_value=0.5, max_value=4.0),
       tenants=st.integers(min_value=1, max_value=6),
       devices=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=31))
@settings(max_examples=30, deadline=None)
def test_utilization_integrates_to_busy_time(window_s, rate_scale,
                                             tenants, devices, seed):
    recorder = MetricsRecorder(window_s=window_s)
    simulator = ServingSimulator(
        CONFIG, num_devices=devices, max_batch=4,
        key_cache_bytes=2 * TOY_A.key_bytes)
    report = simulator.run(_toy_scenario(rate_scale, tenants, 0.05),
                           seed=seed, recorder=recorder)
    data = recorder.to_dict()
    assert len(data["boards"]) == devices
    assert all(u >= 0 for util in data["windows"]["board_util"]
               for u in util)
    _assert_integrates_back(data, report)
    assert data["makespan_s"] == report.makespan_s
    assert data["num_windows"] == len(data["windows"]["t0"])


def test_queue_depth_time_weighted():
    """Queue depth is the time-weighted mean over each window, built
    from flush-on-sample integration of the raw samples."""
    rec = MetricsRecorder(window_s=1.0)
    rec.run_begin(scenario="s", num_devices=1, policy="fifo")
    rec.queue_sample(t=0.0, total=4, depths={("a", "t0"): 4})
    rec.queue_sample(t=0.5, total=2, depths={("a", "t0"): 2})
    rec.queue_sample(t=2.0, total=0, depths={})
    rec.run_end(makespan_s=2.0, device_busy_s=(0.0,), jobs_done=0)
    data = rec.to_dict()
    # Window 0: 4 jobs for 0.5s + 2 jobs for 0.5s = 3.0 mean.
    # Window 1: 2 jobs for the whole second.  The sample exactly on
    # the t=2.0 boundary opens (empty) window 2.
    assert data["windows"]["queue_depth"] == pytest.approx(
        [3.0, 2.0, 0.0])
    assert data["windows"]["per_queue_depth"]["a/t0"] == \
        pytest.approx([3.0, 2.0, 0.0])
    assert rec.peak_queue_depth == 4


def test_slo_and_rejections_windowed():
    rec = MetricsRecorder(window_s=0.1)
    rec.run_begin(scenario="s", num_devices=1, policy="edf")
    rec.job_rejected(t=0.05, job_id=1, job_class="a", tenant="t0")
    rec.batch(start=0.1, finish=0.2, job_class="a", tenant="t0",
              batch_size=2, launch_s=0.0, members=((0, 0.0, 0),),
              slo_met=1, slo_total=2)
    rec.run_end(makespan_s=0.2, device_busy_s=(0.1,), jobs_done=2)
    data = rec.to_dict()
    wins = data["windows"]
    assert wins["rejections"][0] == 1
    # The rejection counts against attainment in its window; the batch
    # lands at its finish time (t=0.2 -> window 2).
    assert wins["slo_total"][0] == 1 and wins["slo_met"][0] == 0
    assert wins["slo_total"][2] == 2 and wins["slo_met"][2] == 1
    assert wins["slo_rolling"][-1] == pytest.approx(1 / 3)
    summary = rec.summary()
    assert summary["rejections"] == 1
    assert summary["slo_attainment"] == pytest.approx(1 / 3)


def test_non_finite_times_clamp():
    """Rejections/samples at t=inf (a board parked 'until arrivals')
    clamp into the last touched window instead of overflowing."""
    rec = MetricsRecorder(window_s=0.1)
    rec.run_begin(scenario="s", num_devices=1, policy="edf")
    rec.batch(start=0.0, finish=0.25, job_class="a", tenant="t0",
              batch_size=1, launch_s=0.0, members=((0, 0.0, 0),))
    rec.queue_sample(t=math.inf, total=3, depths=None)
    rec.job_rejected(t=math.inf, job_id=7, job_class="a", tenant="t0")
    rec.run_end(makespan_s=0.25, device_busy_s=(0.25,), jobs_done=1)
    data = rec.to_dict()
    assert all(math.isfinite(t) for t in data["windows"]["t0"])
    assert sum(data["windows"]["rejections"]) == 1


def test_price_and_cache_series():
    """Diurnal price means land per window; cache snapshots forward-
    fill between batches."""
    recorder = MetricsRecorder(window_s=0.01)
    price = PriceSignal.diurnal(peak=2.0, trough=0.5, slot_s=0.05)
    scenario = build_slo_scenario(CONFIG, num_devices=2,
                                  duration_s=0.2, target_load=0.8)
    ServingSimulator(CONFIG, num_devices=2).run(
        scenario, seed=0, policy="deferrable-window", price=price,
        recorder=recorder)
    data = recorder.to_dict()
    wins = data["windows"]
    # Windows aligned inside a slot read the slot's level; float
    # round-off from the integral allows a hair either side.
    assert all(0.5 - 1e-9 <= p <= 2.0 + 1e-9
               for p in wins["price_mean"])
    assert max(wins["price_mean"]) > 1.5 > min(wins["price_mean"])
    # Hit rate is None before the first batch, then in [0, 1].
    rates = [r for r in wins["key_hit_rate"] if r is not None]
    assert rates and all(0.0 <= r <= 1.0 for r in rates)
    # Resident bytes never exceed the pool's aggregate capacity.
    resident = [b for b in wins["key_resident_bytes"] if b is not None]
    assert resident and max(resident) > 0
    evicted = [b for b in wins["key_bytes_evicted"] if b is not None]
    assert all(a <= b for a, b in zip(evicted, evicted[1:]))


def test_window_s_must_be_positive():
    with pytest.raises(ValueError):
        MetricsRecorder(window_s=0.0)


def test_boundary_event_lands_in_opening_window():
    """Regression: t=0.3 with window 0.1.  In binary, 0.3/0.1 is
    2.9999999999999996, so the old truncating index filed a boundary
    event under window 2 — one window early.  The ulp-tolerant
    :func:`window_index` must pin it to the window it opens."""
    assert 0.3 / 0.1 != 3.0      # the failure mode this test pins
    assert window_index(0.3, 0.1) == 3
    rec = MetricsRecorder(window_s=0.1)
    rec.run_begin(scenario="s", num_devices=1, policy="fifo")
    rec.job_rejected(t=0.3, job_id=1, job_class="a", tenant="t0")
    rec.run_end(makespan_s=0.4, device_busy_s=(0.0,), jobs_done=0)
    wins = rec.to_dict()["windows"]
    assert wins["rejections"][3] == 1
    assert wins["rejections"][2] == 0


@given(k=st.integers(min_value=0, max_value=10_000),
       w=st.floats(min_value=1e-6, max_value=10.0))
def test_boundary_always_opens_window_k(k, w):
    """An event at exactly ``k * w`` indexes window ``k`` for every
    window width: the quotient's float error is a couple of ulps,
    well inside the tolerance, while the tolerance stays far too
    small to ever pull an interior point up a window."""
    assert window_index(k * w, w) == k


def test_horizon_on_boundary_stays_in_final_window():
    """A clock-out at exactly the horizon (makespan == k * window_s)
    must land in the final window, not one past it: ``num_windows``
    derives from the same tolerant index events use, so the two can
    never disagree.  With the old independent ceil (ceil(0.3/0.1) ==
    3 windows) the batch finishing at t=0.3 indexed past the series
    end."""
    rec = MetricsRecorder(window_s=0.1)
    rec.run_begin(scenario="s", num_devices=1, policy="fifo")
    rec.batch(start=0.2, finish=0.3, job_class="a", tenant="t0",
              batch_size=1, launch_s=0.0, members=((0, 0.1, 0),))
    rec.run_end(makespan_s=0.3, device_busy_s=(0.1,), jobs_done=1)
    data = rec.to_dict()
    assert data["num_windows"] == 4
    assert len(data["windows"]["t0"]) == 4
    assert data["windows"]["jobs_done"][3] == 1
    assert sum(data["windows"]["jobs_done"]) == 1


@given(window_s=st.floats(min_value=1e-3, max_value=0.1),
       seed=st.integers(min_value=0, max_value=31))
@settings(max_examples=15, deadline=None)
def test_series_integrate_back_under_faults_and_autoscale(window_s, seed):
    """A batch a fault kills mid-flight still burns board time, key
    loads and price, but completes no job: the jobs series must not
    count it, or it overshoots ``report.jobs_done`` by the killed
    batch sizes."""
    scenario = build_slo_scenario(
        CONFIG, num_devices=4, duration_s=0.3, target_load=0.6,
        interactive_fraction=1.0).with_arrivals("diurnal:amplitude=0.9")
    recorder = MetricsRecorder(window_s=window_s)
    report = ServingSimulator(CONFIG, num_devices=4).run(
        scenario, seed=seed, policy="edf", recorder=recorder,
        faults="poisson:mtbf=0.1,mttr=0.02", retry="backoff:base=0.005",
        autoscale="reactive:low=0.3,high=0.85,cooldown=0.02")
    _assert_integrates_back(recorder.to_dict(), report)


def test_killed_batches_complete_no_jobs():
    """The perfbench ``serve_chaos`` input at seed 1 kills 21 batches;
    counting them as completed put 13,145 jobs in the series against
    the report's 13,097."""
    scenario = build_slo_scenario(
        CONFIG, duration_s=30.0, target_load=0.2,
        interactive_fraction=1.0).with_arrivals("diurnal:amplitude=0.9")
    recorder = MetricsRecorder(window_s=0.1)
    report = ServingSimulator(CONFIG, num_devices=8).run(
        scenario, seed=1, policy="edf", recorder=recorder,
        faults="poisson:mtbf=4.0,mttr=0.02",
        retry="backoff:base=0.005,jitter=0.25",
        autoscale=("predictive:window=0.1,horizon=0.05,target=0.6,"
                   "cooldown=0.02,avail=1+spare:n=1"))
    assert report.failures == 21
    assert report.jobs_done == 13_097
    _assert_integrates_back(recorder.to_dict(), report)


def test_killed_flag_reaches_every_recorder_through_compose():
    """``compose`` fans the flag out with the other keywords: the
    metrics series drops the killed batch's jobs, and the timeline
    still draws its span."""
    metrics = MetricsRecorder(window_s=0.1)
    timeline = TimelineRecorder()
    rec = compose(metrics, timeline)
    rec.run_begin(scenario="s", num_devices=1, policy="fifo")
    for killed in (False, True):
        rec.batch(start=0.0, finish=0.05, job_class="a", tenant="t0",
                  batch_size=3, launch_s=0.0, members=((0, 0.0, 0),),
                  cost=1.0, killed=killed)
    rec.run_end(makespan_s=0.05, device_busy_s=(0.1,), jobs_done=3)
    wins = metrics.to_dict()["windows"]
    assert wins["jobs_done"] == [3.0]
    assert wins["cost_cum"] == [2.0]
    assert wins["board_util"] == [[1.0]]
    spans = [e for e in timeline.to_dict()["traceEvents"]
             if e.get("name") == "a x3" and e.get("ph") == "B"]
    assert len(spans) == 2
