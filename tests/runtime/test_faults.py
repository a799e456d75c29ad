"""Tests for board-fault injection and recovery.

The load-bearing guarantees: fault schedules are deterministic per
(seed, board) and independent of the retry policy; every job is
conserved — ``completed + rejected + shed + shed_degraded`` equals
arrivals — under *any* fault schedule (hypothesis-hammered); a
scripted chaos trace reproduces exact counters; degraded re-planning
re-stripes gang jobs when the pool permanently shrinks; and the
observability layer sees faults without perturbing the simulation.
"""

import math
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FabConfig
from repro.obs import MetricsRecorder, TimelineRecorder, compose
from repro.runtime import (ExponentialBackoffRetry, ImmediateRetry,
                           NoRetry, PoissonFaultProcess, ServingSimulator,
                           SpecError, TraceFaultProcess,
                           WeibullFaultProcess, build_scenarios,
                           build_slo_scenario, largest_viable_stripe,
                           make_fault_process, make_retry_policy)
from repro.runtime.faults import FaultSchedule
from repro.runtime.serving import Job


@pytest.fixture(scope="module")
def config():
    return FabConfig()


@pytest.fixture(scope="module")
def mixed(config):
    return build_scenarios(config, num_devices=4,
                           duration_s=0.4)["mixed"]


@pytest.fixture(scope="module")
def striped(config):
    return build_scenarios(config, num_devices=4, duration_s=0.4,
                           training_stripe=2)["mixed"]


def _job(job_class=None, retries=0):
    job = Job(0, job_class, "tenant0", 0.0)
    job.retries = retries
    return job


def conservation(scenario, report, seed):
    arrivals = len(scenario.generate(seed))
    accounted = (report.jobs_done + report.rejected_jobs
                 + report.shed_jobs + report.shed_degraded)
    assert accounted == arrivals, (
        f"{arrivals} arrivals but {accounted} accounted "
        f"(done={report.jobs_done} rejected={report.rejected_jobs} "
        f"shed={report.shed_jobs} shed_degraded={report.shed_degraded})")


class TestFaultProcesses:
    def test_poisson_deterministic_per_seed_and_board(self):
        process = PoissonFaultProcess(mtbf_s=0.5, mttr_s=0.1)

        def head(board, seed, n=5):
            out = []
            for interval in process.board_intervals(board, seed):
                out.append(interval)
                if len(out) == n:
                    break
            return out

        assert head(0, 0) == head(0, 0)
        assert head(0, 0) != head(1, 0)
        assert head(0, 0) != head(0, 1)

    def test_intervals_alternate_and_advance(self):
        process = PoissonFaultProcess(mtbf_s=0.5, mttr_s=0.1)
        prev_up = 0.0
        for i, (down, up) in enumerate(process.board_intervals(0, 0)):
            assert down >= prev_up
            assert up > down
            prev_up = up
            if i == 10:
                break

    def test_weibull_permanent_after_truncates(self):
        process = WeibullFaultProcess(scale_s=0.1, shape=2.0,
                                      mttr_s=0.05, permanent_after=3)
        intervals = list(process.board_intervals(0, 0))
        assert len(intervals) == 3
        assert math.isinf(intervals[-1][1])
        assert all(math.isfinite(up) for _, up in intervals[:-1])

    def test_trace_roundtrip_and_validation(self, tmp_path):
        trace = TraceFaultProcess([(0, 0.1, 0.2), (0, 0.5, None),
                                   (2, 0.05, 0.3)])
        path = tmp_path / "faults.jsonl"
        trace.to_jsonl(str(path))
        again = TraceFaultProcess.from_jsonl(str(path))
        assert again.per_board == trace.per_board
        assert list(trace.board_intervals(1, 0)) == []
        with pytest.raises(ValueError, match="up > down"):
            TraceFaultProcess([(0, 0.2, 0.1)])
        with pytest.raises(ValueError, match="overlap"):
            TraceFaultProcess([(0, 0.1, 0.3), (0, 0.2, 0.4)])

    def test_make_fault_process_specs(self):
        process = make_fault_process("poisson:mtbf=2,mttr=0.5")
        assert isinstance(process, PoissonFaultProcess)
        assert process.mtbf_s == 2.0 and process.mttr_s == 0.5
        weibull = make_fault_process(
            "weibull:scale=1,shape=3,permanent_after=2")
        assert isinstance(weibull, WeibullFaultProcess)
        assert weibull.permanent_after == 2
        assert make_fault_process(process) is process
        with pytest.raises(SpecError, match="unknown fault process"):
            make_fault_process("meteor:rate=1")
        with pytest.raises(SpecError, match="accepted"):
            make_fault_process("poisson:mtbrf=2")
        with pytest.raises(SpecError, match="path"):
            make_fault_process("trace")


class TestRetryPolicies:
    def test_no_retry_always_sheds(self):
        assert NoRetry().next_attempt_s(_job(), 1.0,
                                        random.Random(0)) is None

    def test_immediate_respects_budget(self):
        policy = ImmediateRetry(max_retries=2)
        rng = random.Random(0)
        assert policy.next_attempt_s(_job(retries=0), 5.0, rng) == 5.0
        assert policy.next_attempt_s(_job(retries=1), 5.0, rng) == 5.0
        assert policy.next_attempt_s(_job(retries=2), 5.0, rng) is None

    def test_backoff_grows_and_caps(self):
        policy = ExponentialBackoffRetry(base_s=0.01, factor=2.0,
                                         cap_s=0.05, max_retries=10,
                                         jitter=0.0)
        rng = random.Random(0)
        delays = [policy.next_attempt_s(_job(retries=k), 0.0, rng)
                  for k in range(5)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]
        assert policy.next_attempt_s(_job(retries=10), 0.0, rng) is None

    def test_backoff_jitter_bounded_and_seeded(self):
        policy = ExponentialBackoffRetry(base_s=0.01, jitter=0.5)
        first = policy.next_attempt_s(_job(), 0.0, random.Random("r"))
        again = policy.next_attempt_s(_job(), 0.0, random.Random("r"))
        assert first == again
        assert 0.01 <= first <= 0.015

    def test_make_retry_policy_specs(self):
        assert isinstance(make_retry_policy(None), NoRetry)
        assert isinstance(make_retry_policy("none"), NoRetry)
        immediate = make_retry_policy("immediate:max=5")
        assert isinstance(immediate, ImmediateRetry)
        assert immediate.max_retries == 5
        backoff = make_retry_policy("backoff:base=0.1,cap=2,jitter=0")
        assert backoff.base_s == 0.1 and backoff.jitter == 0.0
        assert make_retry_policy(backoff) is backoff
        with pytest.raises(SpecError, match="unknown retry policy"):
            make_retry_policy("psychic")
        with pytest.raises(SpecError, match="accepted"):
            make_retry_policy("backoff:greed=2")


class TestFaultSchedule:
    def test_holds_current_interval_until_past(self):
        schedule = FaultSchedule(
            TraceFaultProcess([(0, 0.1, 0.3)]), 1, seed=0)
        assert schedule.current(0) == (0.1, 0.3)
        assert not schedule.processed(0)
        schedule.mark_processed(0)
        # Still the current interval: the board is down until 0.3.
        assert schedule.current(0) == (0.1, 0.3)
        schedule.advance(0)
        assert schedule.current(0) == (math.inf, math.inf)
        assert not schedule.processed(0)

    def test_boards_independent(self):
        schedule = FaultSchedule(
            TraceFaultProcess([(1, 0.2, 0.4)]), 3, seed=0)
        assert schedule.current(0) == (math.inf, math.inf)
        assert schedule.current(1) == (0.2, 0.4)
        assert schedule.current(2) == (math.inf, math.inf)


class TestLargestViableStripe:
    def test_stripes_are_one_or_even(self):
        assert largest_viable_stripe(8, 8) == 8
        assert largest_viable_stripe(7, 8) == 6
        assert largest_viable_stripe(3, 4) == 2
        assert largest_viable_stripe(2, 8) == 2
        assert largest_viable_stripe(1, 4) == 1
        assert largest_viable_stripe(0, 4) == 0


class TestFaultInjection:
    def test_faults_require_des_engine(self, config, mixed):
        simulator = ServingSimulator(config, num_devices=4)
        with pytest.raises(ValueError, match="fast"):
            simulator.run(mixed, faults="poisson:mtbf=1", engine="fast")

    def test_retry_requires_faults(self, config, mixed):
        simulator = ServingSimulator(config, num_devices=4)
        with pytest.raises(ValueError, match="faults"):
            simulator.run(mixed, retry="backoff")

    def test_fault_free_reports_have_no_fault_activity(self, config,
                                                       mixed):
        report = ServingSimulator(config, num_devices=4).run(mixed)
        assert report.board_faults == 0
        assert report.failures == 0
        assert report.retries == 0
        assert report.shed_jobs == 0
        assert report.wasted_service_s == 0.0
        assert report.goodput_jps == report.throughput_jps

    def test_backoff_recovers_more_than_no_retry(self, config, mixed):
        simulator = ServingSimulator(config, num_devices=4)
        faults = "poisson:mtbf=0.05,mttr=0.02"
        none = simulator.run(mixed, seed=0, faults=faults)
        backoff = simulator.run(mixed, seed=0, faults=faults,
                                retry="backoff")
        assert none.failures > 0
        assert backoff.jobs_done > none.jobs_done
        assert backoff.retries > 0
        assert none.retries == 0
        conservation(mixed, none, 0)
        conservation(mixed, backoff, 0)

    def test_fault_schedule_independent_of_retry_policy(self, config,
                                                        mixed):
        # Fault draws are keyed on (seed, board) only: first-failure
        # counters can differ (longer runs see more faults) but the
        # underlying per-board timelines are identical, so the first
        # fault instants coincide.
        process = make_fault_process("poisson:mtbf=0.1,mttr=0.02")
        first = [next(iter(process.board_intervals(b, 0)))
                 for b in range(4)]
        again = [next(iter(process.board_intervals(b, 0)))
                 for b in range(4)]
        assert first == again

    def test_deterministic_across_runs(self, config, mixed):
        simulator = ServingSimulator(config, num_devices=4)
        kwargs = dict(seed=3, faults="poisson:mtbf=0.08,mttr=0.02",
                      retry="backoff")
        one = simulator.run(mixed, **kwargs)
        two = simulator.run(mixed, **kwargs)
        assert one == two

    def test_wasted_service_and_cost_accrue_on_kills(self, config,
                                                     mixed):
        simulator = ServingSimulator(config, num_devices=4)
        report = simulator.run(mixed, seed=0,
                               faults="poisson:mtbf=0.05,mttr=0.02",
                               retry="immediate:max=2")
        assert report.failures > 0
        assert report.wasted_service_s > 0.0
        baseline = ServingSimulator(config, num_devices=4).run(mixed)
        # Goodput counts at most what completed.
        assert report.jobs_done <= baseline.jobs_done + report.retries

    def test_degraded_replan_onto_smaller_stripe(self, config, striped):
        simulator = ServingSimulator(config, num_devices=4)
        # Permanently kill 3 of 4 boards: the 2-board training gang
        # can never assemble again and must re-stripe to 1 board.
        trace = TraceFaultProcess([(1, 0.02, None), (2, 0.03, None),
                                   (3, 0.04, None)])
        report = simulator.run(striped, seed=0, faults=trace,
                               retry="immediate:max=8")
        assert report.degraded_jobs > 0
        assert report.board_faults == 3
        conservation(striped, report, 0)

    def test_pool_death_sheds_everything(self, config, mixed):
        simulator = ServingSimulator(config, num_devices=4)
        trace = TraceFaultProcess([(b, 0.01 + b * 0.01, None)
                                   for b in range(4)])
        report = simulator.run(mixed, seed=0, faults=trace,
                               retry="backoff")
        conservation(mixed, report, 0)
        assert report.shed_jobs > 0
        arrivals = len(mixed.generate(0))
        assert report.jobs_done < arrivals

    def test_repaired_board_comes_back_cold(self, config, mixed):
        simulator = ServingSimulator(config, num_devices=2)
        scenario = build_scenarios(config, num_devices=2,
                                   duration_s=0.4)["interactive"]
        clean = simulator.run(scenario, seed=0)
        faulty = simulator.run(scenario, seed=0,
                               faults=TraceFaultProcess(
                                   [(0, 0.05, 0.06), (1, 0.2, 0.21)]),
                               retry="immediate:max=8")
        # Every fault wipes a cache: the faulty run must reload
        # strictly more key bytes than the clean one.
        assert faulty.key_bytes_loaded > clean.key_bytes_loaded


class TestChaosSmoke:
    """Deterministic chaos counters: a scripted fault trace against a
    fixed seed must reproduce these numbers exactly (CI runs this)."""

    def test_exact_counters_under_scripted_faults(self, config, mixed):
        simulator = ServingSimulator(config, num_devices=4)
        trace = TraceFaultProcess([
            (0, 0.05, 0.10), (1, 0.08, 0.12), (2, 0.15, None),
            (0, 0.25, 0.28), (3, 0.30, 0.33),
        ])
        report = simulator.run(mixed, seed=0, faults=trace,
                               retry="backoff:base=0.005,jitter=0.25")
        again = simulator.run(mixed, seed=0, faults=trace,
                              retry="backoff:base=0.005,jitter=0.25")
        assert report == again
        conservation(mixed, report, 0)
        # Pin the exact recovered-work counters: any change to fault
        # settlement, retry timing, or gang re-assembly moves these.
        assert report.board_faults == 5
        assert report.failures == 5
        assert report.retries == 13
        assert report.jobs_done == 126
        assert report.shed_jobs == 0
        assert report.shed_degraded == 0
        good = int(round(report.goodput_jps * report.makespan_s))
        assert good == 126


class TestEdfLivenessUnderFaults:
    """Once faults have evicted every key cache, EDF skips a
    cold-cache head on every board and every board defers to ``inf``.
    Settling faults up to ``t = inf`` would draw fault intervals
    forever; the run must return (under a 5 s alarm) with every
    arrival accounted for."""

    def test_edf_run_returns(self, config):
        scenario = build_slo_scenario(config, num_devices=4,
                                      duration_s=0.3)
        simulator = ServingSimulator(config, num_devices=4)

        def give_up(signum, frame):
            raise TimeoutError("run did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(5)
        try:
            report = simulator.run(scenario, seed=1, policy="edf",
                                   faults="poisson:mtbf=0.3,mttr=0.03",
                                   retry="backoff:base=0.005")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        conservation(scenario, report, 1)


class TestConservationProperty:
    """Arrivals are conserved under every fault schedule."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        mtbf=st.floats(min_value=0.01, max_value=1.0),
        mttr=st.floats(min_value=0.005, max_value=0.2),
        retry=st.sampled_from(["none", "immediate:max=2",
                               "immediate:max=8", "backoff",
                               "backoff:base=0.002,max=3,jitter=0"]),
        policy=st.sampled_from(["fifo", "edf"]),
        stripe=st.sampled_from([1, 2]),
    )
    def test_every_job_is_accounted_for(self, seed, mtbf, mttr, retry,
                                        policy, stripe):
        config = FabConfig()
        scenario = build_scenarios(config, num_devices=4,
                                   duration_s=0.25,
                                   training_stripe=stripe)["mixed"]
        simulator = ServingSimulator(config, num_devices=4)
        report = simulator.run(
            scenario, seed=seed, policy=policy,
            faults=f"poisson:mtbf={mtbf},mttr={mttr}", retry=retry)
        conservation(scenario, report, seed)
        assert report.retries >= 0
        assert report.wasted_service_s >= 0.0

    @settings(max_examples=15, deadline=None)
    @given(
        events=st.lists(
            st.tuples(st.integers(min_value=0, max_value=3),
                      st.floats(min_value=0.0, max_value=0.4),
                      st.one_of(st.none(),
                                st.floats(min_value=0.001,
                                          max_value=0.3))),
            max_size=6),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_scripted_schedules_conserve_too(self, events, seed):
        # Normalize to valid, non-overlapping per-board intervals.
        per_board = {}
        normalized = []
        for board, down, duration in events:
            floor = per_board.get(board, 0.0)
            if math.isinf(floor):
                continue  # board already permanently dead
            start = max(down, floor) + 1e-9
            up = None if duration is None else start + duration
            normalized.append((board, start, up))
            per_board[board] = math.inf if up is None else up + 1e-6
        config = FabConfig()
        scenario = build_scenarios(config, num_devices=4,
                                   duration_s=0.25)["mixed"]
        report = ServingSimulator(config, num_devices=4).run(
            scenario, seed=seed, faults=TraceFaultProcess(normalized),
            retry="backoff:base=0.01,max=4")
        conservation(scenario, report, seed)


class TestObservabilityUnderFaults:
    def test_recorders_see_faults_and_do_not_perturb(self, config,
                                                     mixed):
        simulator = ServingSimulator(config, num_devices=4)
        kwargs = dict(seed=0, faults="poisson:mtbf=0.08,mttr=0.02",
                      retry="backoff")
        timeline = TimelineRecorder()
        metrics = MetricsRecorder(window_s=0.05)
        recorded = simulator.run(mixed, recorder=compose(timeline,
                                                         metrics),
                                 **kwargs)
        bare = simulator.run(mixed, **kwargs)
        assert recorded == bare
        summary = metrics.summary()
        assert summary["board_faults"] == recorded.board_faults
        assert summary["board_repairs"] > 0
        assert summary["min_healthy_boards"] < 4
        names = {event.get("name") for event
                 in timeline.to_dict()["traceEvents"]}
        assert "fault" in names
        assert "repair" in names
        assert "healthy boards" in names

    def test_slo_scenario_goodput_below_throughput_under_faults(
            self, config):
        scenario = build_slo_scenario(config, num_devices=4,
                                      duration_s=0.4, target_load=0.8)
        report = ServingSimulator(config, num_devices=4).run(
            scenario, seed=0, faults="poisson:mtbf=0.05,mttr=0.02",
            retry="backoff")
        assert report.goodput_jps <= report.throughput_jps
        assert report.per_tenant_slo  # per-tenant SLO still reported
