"""Tests for the unified pool-membership ledger (PR 10).

The load-bearing guarantees: :class:`PoolLedger` is a clamped,
conserving state machine (per-state board-seconds always sum to
``num_boards * elapsed``); key-cache eviction is ledger-owned and
fires exactly once per departure (the double-eviction fix — a fault
landing mid-drain must not evict twice); the combined faults x
autoscale loop reproduces exact arbitration counters on a scripted
chaos input (the ``combined-chaos`` CI step); and job conservation
holds under simultaneous random fault and random scale schedules
(hypothesis-hammered) with the ledger's board-second integrals intact.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FabConfig
from repro.runtime import (
    KeyCache,
    PoolLedger,
    ScheduleScalePolicy,
    ServingSimulator,
    SpareScalePolicy,
    TraceFaultProcess,
    build_scenarios,
    build_slo_scenario,
    make_scale_policy,
    run_with_ledger,
)
from repro.runtime.autoscaler import (
    AVAILABILITY_FLOOR,
    PredictiveScalePolicy,
    ScaleSignals,
)
from repro.runtime.membership import (
    ACTIVE,
    BOARD_STATES,
    DRAINING,
    FAILED,
    PARKED,
    REPAIRING,
)


@pytest.fixture(scope="module")
def config():
    return FabConfig()


@pytest.fixture(scope="module")
def mixed(config):
    return build_scenarios(config, num_devices=4, duration_s=0.4)["mixed"]


@pytest.fixture(scope="module")
def sparse(config):
    # Low offered load: boards go idle between arrivals, so faults
    # are discovered on *idle* boards — the interleaving the
    # fault-completes-drain arbitration rule needs.
    return build_slo_scenario(
        config,
        num_devices=4,
        duration_s=0.4,
        target_load=0.1,
        interactive_fraction=1.0,
    )


class _FakeClass:
    """Minimal stand-in for JobClass as KeyCache sees it."""

    key_ids = ("k0", "k1", "k2")
    bytes_per_key = 1024


def conservation(scenario, report, seed):
    arrivals = len(scenario.generate(seed))
    accounted = (
        report.jobs_done
        + report.rejected_jobs
        + report.shed_jobs
        + report.shed_degraded
    )
    assert accounted == arrivals, f"{arrivals} arrivals but {accounted} accounted"


class TestPoolLedger:
    def test_starts_fully_active(self):
        ledger = PoolLedger(4)
        assert ledger.states() == (ACTIVE,) * 4
        assert ledger.counts() == {
            ACTIVE: 4,
            DRAINING: 0,
            PARKED: 0,
            FAILED: 0,
            REPAIRING: 0,
        }
        assert ledger.transitions == {}

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            PoolLedger(0)

    def test_transitions_count_and_accrue(self):
        ledger = PoolLedger(2)
        ledger.transition(0, REPAIRING, 1.0)
        ledger.transition(0, ACTIVE, 3.0)
        ledger.transition(1, DRAINING, 2.0)
        ledger.transition(1, PARKED, 2.0)
        assert ledger.transitions == {
            "active->repairing": 1,
            "repairing->active": 1,
            "active->draining": 1,
            "draining->parked": 1,
        }
        end = ledger.close(5.0)
        assert end == 5.0
        seconds = ledger.state_seconds()
        assert seconds[REPAIRING] == pytest.approx(2.0)
        assert seconds[DRAINING] == pytest.approx(0.0)
        assert seconds[PARKED] == pytest.approx(3.0)
        assert sum(seconds.values()) == pytest.approx(2 * 5.0)

    def test_same_state_move_is_a_noop(self):
        ledger = PoolLedger(1)
        ledger.transition(0, ACTIVE, 1.0)
        assert ledger.transitions == {}

    def test_stale_timestamps_clamp_monotonic(self):
        # A lazily-discovered fault can carry a timestamp earlier
        # than the board's last transition; the per-state integral
        # must never go negative.
        ledger = PoolLedger(1)
        ledger.transition(0, PARKED, 4.0)
        ledger.transition(0, REPAIRING, 1.0)  # clamped to 4.0
        end = ledger.close(6.0)
        seconds = ledger.state_seconds()
        assert seconds[PARKED] == pytest.approx(0.0)
        assert seconds[ACTIVE] == pytest.approx(4.0)
        assert seconds[REPAIRING] == pytest.approx(2.0)
        assert sum(seconds.values()) == pytest.approx(end)

    def test_close_covers_late_transitions(self):
        ledger = PoolLedger(2)
        ledger.transition(0, FAILED, 7.0)
        end = ledger.close(5.0)  # close time before a transition
        assert end == 7.0
        assert sum(ledger.state_seconds().values()) == pytest.approx(2 * end)

    def test_evicts_exactly_once_per_departure(self):
        """The double-eviction fix: once a departure wiped the cache,
        a second departure (fault landing mid-drain) is a no-op until
        the board serves a batch again."""
        ledger = PoolLedger(1)
        cache = KeyCache(1 << 20)
        cache.request("t0", _FakeClass())
        assert cache.resident_bytes > 0
        assert ledger.evict(0, cache) is True
        assert cache.resident_bytes == 0
        evictions = cache.evictions
        assert ledger.evict(0, cache) is False  # second departure
        assert cache.evictions == evictions  # stats untouched
        ledger.warmed(0)  # served a batch
        cache.request("t0", _FakeClass())
        assert ledger.evict(0, cache) is True


class TestAvailabilityAwareSizing:
    def _signals(self, availability, down=0, alive=None):
        return ScaleSignals(
            t=1.0,
            interval_s=0.01,
            queue_depth=0,
            provisioned=8,
            busy_board_s=0.0,
            provisioned_board_s=0.08,
            arrivals=10,
            arrival_rate=1000.0,
            service_s_per_job=0.004,
            alive=alive,
            down_in_service=down,
            availability=availability,
        )

    def test_divides_by_empirical_availability(self):
        plain = PredictiveScalePolicy(window_s=0.1, horizon_s=0.0, target_util=1.0)
        aware = PredictiveScalePolicy(
            window_s=0.1, horizon_s=0.0, target_util=1.0, availability_aware=True
        )
        plain.begin(16)
        aware.begin(16)
        base = plain.desired(self._signals(0.5))
        discounted = aware.desired(self._signals(0.5))
        doubled = pytest.approx(2 * base, abs=1)
        assert discounted == math.ceil(base * 2) or discounted == doubled
        assert aware.desired(self._signals(1.0)) == base

    def test_availability_floor_bounds_the_fleet(self):
        aware = PredictiveScalePolicy(
            window_s=0.1, horizon_s=0.0, target_util=1.0, availability_aware=True
        )
        aware.begin(16)
        floored = aware.desired(self._signals(0.0))
        expected = aware.desired(self._signals(AVAILABILITY_FLOOR))
        assert floored == expected

    def test_spec_option_round_trips(self):
        policy = make_scale_policy("predictive:target=0.7,avail=1")
        assert policy.availability_aware is True
        policy = make_scale_policy("predictive:target=0.7")
        assert policy.availability_aware is False


class TestSparePolicy:
    def test_standalone_base_is_pool_minus_spares(self):
        policy = SpareScalePolicy(n=2)
        policy.begin(8)
        signals = ScaleSignals(
            t=1.0,
            interval_s=0.01,
            queue_depth=0,
            provisioned=6,
            busy_board_s=0.0,
            provisioned_board_s=0.06,
            arrivals=0,
            arrival_rate=0.0,
            service_s_per_job=0.0,
            alive=8,
            down_in_service=0,
        )
        assert policy.desired(signals) == 6

    def test_down_boards_pull_in_spares_capped_at_alive(self):
        policy = SpareScalePolicy(n=2)
        policy.begin(8)
        base = dict(
            t=1.0,
            interval_s=0.01,
            queue_depth=0,
            provisioned=6,
            busy_board_s=0.0,
            provisioned_board_s=0.06,
            arrivals=0,
            arrival_rate=0.0,
            service_s_per_job=0.0,
        )
        assert policy.desired(ScaleSignals(alive=8, down_in_service=2, **base)) == 8
        # Permanent deaths shrink the ceiling below base + down.
        assert policy.desired(ScaleSignals(alive=5, down_in_service=2, **base)) == 5

    def test_composed_spec_wraps_the_inner_policy(self):
        policy = make_scale_policy(
            "predictive:window=0.1,target=0.7,interval=0.02+spare:n=1"
        )
        assert isinstance(policy, SpareScalePolicy)
        assert isinstance(policy.inner, PredictiveScalePolicy)
        assert policy.spares == 1
        assert policy.interval_s == policy.inner.interval_s == 0.02

    def test_bad_composition_rejected(self):
        from repro.runtime import SpecError

        with pytest.raises(SpecError):
            make_scale_policy("spare:n=1+predictive:target=0.7")


class TestSingleModeLedger:
    """Single-mechanism runs drive the same ledger; its trail must
    reflect only that mechanism's transitions."""

    def test_fixed_pool_is_serving_simulator_run(self, config, mixed):
        simulator = ServingSimulator(config, num_devices=4)
        ledger = PoolLedger(4)
        report = run_with_ledger(simulator, mixed, seed=0, ledger=ledger)
        assert report == simulator.run(mixed, seed=0)
        assert ledger.transitions == {}
        assert ledger.state_seconds()[ACTIVE] == pytest.approx(4 * ledger.closed_at)

    def test_faults_only_never_parks(self, config, mixed):
        simulator = ServingSimulator(config, num_devices=4)
        ledger = PoolLedger(4)
        report = run_with_ledger(
            simulator,
            mixed,
            seed=0,
            faults="poisson:mtbf=0.05,mttr=0.02",
            retry="backoff",
            ledger=ledger,
        )
        conservation(mixed, report, 0)
        assert report.board_faults > 0
        for key in ledger.transitions:
            assert "draining" not in key and "parked" not in key
        assert ledger.closed_at is not None
        assert sum(ledger.state_seconds().values()) == pytest.approx(
            4 * ledger.closed_at
        )

    def test_autoscale_only_never_fails(self, config, mixed):
        simulator = ServingSimulator(config, num_devices=4)
        ledger = PoolLedger(4)
        report = run_with_ledger(
            simulator,
            mixed,
            seed=0,
            autoscale="reactive:low=0.3,high=0.85,cooldown=0.02",
            ledger=ledger,
        )
        conservation(mixed, report, 0)
        for key in ledger.transitions:
            assert "failed" not in key and "repairing" not in key
        assert sum(ledger.state_seconds().values()) == pytest.approx(
            4 * ledger.closed_at
        )


class TestFaultCompletesDrain:
    """The first arbitration rule, plus the double-eviction
    regression: a board the scaler wants gone that is found *down*
    parks immediately (``repairing -> draining -> parked``), and the
    park's eviction is the ledger no-op — one eviction per
    departure."""

    def _run(self, config, sparse, ledger):
        simulator = ServingSimulator(config, num_devices=4)
        trace = TraceFaultProcess([(3, 0.10, 0.25), (2, 0.12, 0.22)])
        scale = ScheduleScalePolicy([(0.05, 3), (0.12, 1)], interval_s=0.01)
        return run_with_ledger(
            simulator,
            sparse,
            seed=2,
            faults=trace,
            retry="backoff:base=0.005,jitter=0.25",
            autoscale=scale,
            ledger=ledger,
        )

    def test_fault_lands_mid_drain_and_parks_once(self, config, sparse):
        ledger = PoolLedger(4)
        report = self._run(config, sparse, ledger)
        conservation(sparse, report, 2)
        # The arbitration path actually fired: a down board was
        # parked instead of waiting out its repair.
        assert ledger.transitions.get("repairing->draining", 0) >= 1
        assert ledger.transitions["draining->parked"] == (
            ledger.transitions.get("active->draining", 0)
            + ledger.transitions["repairing->draining"]
        )
        assert sum(ledger.state_seconds().values()) == pytest.approx(
            4 * ledger.closed_at
        )

    def test_deterministic(self, config, sparse):
        first = self._run(config, sparse, PoolLedger(4))
        second = self._run(config, sparse, PoolLedger(4))
        assert first == second


class TestCombinedChaosSmoke:
    """Deterministic arbitration counters: a scripted fault trace and
    a scripted scale schedule through the unified loop must reproduce
    these numbers exactly (the ``combined-chaos`` CI step)."""

    def _run(self, config, mixed, ledger):
        simulator = ServingSimulator(config, num_devices=4)
        trace = TraceFaultProcess(
            [
                (0, 0.05, 0.10),
                (1, 0.08, 0.12),
                (2, 0.15, None),
                (0, 0.25, 0.28),
                (3, 0.30, 0.33),
            ]
        )
        scale = ScheduleScalePolicy([(0.06, 2), (0.18, 4), (0.28, 2)], interval_s=0.02)
        return run_with_ledger(
            simulator,
            mixed,
            seed=0,
            faults=trace,
            retry="backoff:base=0.005,jitter=0.25",
            autoscale=scale,
            ledger=ledger,
        )

    def test_exact_ledger_counters(self, config, mixed):
        ledger = PoolLedger(4)
        report = self._run(config, mixed, ledger)
        again = PoolLedger(4)
        assert self._run(config, mixed, again) == report
        assert again.transitions == ledger.transitions
        conservation(mixed, report, 0)
        # Exact arbitration counters: any change to fault settlement,
        # drain arbitration, spare rejoin, or eviction ownership
        # moves these.
        assert ledger.transitions == {
            "active->draining": 3,
            "active->repairing": 4,
            "draining->parked": 3,
            "parked->active": 1,
            "parked->failed": 1,
            "repairing->active": 4,
        }
        assert ledger.counts() == {
            "active": 2,
            "draining": 0,
            "parked": 1,
            "failed": 1,
            "repairing": 0,
        }
        assert report.board_faults == 5
        assert report.failures == 4
        assert report.retries == 12
        assert report.jobs_done == 126
        assert report.shed_jobs == 0
        assert report.shed_degraded == 0
        assert report.resize_events == 4
        assert report.scale_ups == 1
        assert report.scale_downs == 3
        assert sum(ledger.state_seconds().values()) == pytest.approx(
            4 * ledger.closed_at
        )


class TestConservationUnderCombinedChaos:
    """Every job and every board-second is accounted for under
    simultaneous random faults and random scale schedules."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        mtbf=st.floats(min_value=0.01, max_value=1.0),
        mttr=st.floats(min_value=0.005, max_value=0.2),
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.4),
                st.integers(min_value=1, max_value=4),
            ),
            min_size=0,
            max_size=4,
        ),
        retry=st.sampled_from(["none", "immediate:max=2", "backoff"]),
        policy=st.sampled_from(["fifo", "edf"]),
        stripe=st.sampled_from([1, 2]),
    )
    def test_jobs_and_board_seconds_conserved(
        self,
        seed,
        mtbf,
        mttr,
        steps,
        retry,
        policy,
        stripe,
    ):
        config = FabConfig()
        scenario = build_scenarios(
            config, num_devices=4, duration_s=0.25, training_stripe=stripe
        )["mixed"]
        simulator = ServingSimulator(config, num_devices=4)
        ledger = PoolLedger(4)
        report = run_with_ledger(
            simulator,
            scenario,
            seed=seed,
            policy=policy,
            faults=f"poisson:mtbf={mtbf},mttr={mttr}",
            retry=retry,
            autoscale=ScheduleScalePolicy(steps, interval_s=0.01),
            ledger=ledger,
        )
        conservation(scenario, report, seed)
        # Board-seconds conservation across ledger states: the
        # per-state integrals partition num_boards * elapsed.
        assert ledger.closed_at is not None
        total = sum(ledger.state_seconds().values())
        assert total == pytest.approx(4 * ledger.closed_at)
        for state, seconds in ledger.state_seconds().items():
            assert state in BOARD_STATES
            assert seconds >= 0.0
        # The capacity bill is exactly the ledger's in-service states
        # (parked and failed boards are unpaid).
        states = ledger.state_seconds()
        assert report.board_seconds == pytest.approx(
            states[ACTIVE] + states[DRAINING] + states[REPAIRING]
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=0, max_value=3),
    )
    def test_spare_policy_conserves_under_faults(self, seed, n):
        config = FabConfig()
        scenario = build_scenarios(config, num_devices=4, duration_s=0.25)["mixed"]
        simulator = ServingSimulator(config, num_devices=4)
        ledger = PoolLedger(4)
        report = run_with_ledger(
            simulator,
            scenario,
            seed=seed,
            faults="poisson:mtbf=0.08,mttr=0.02",
            retry="backoff",
            autoscale=f"spare:n={n}",
            ledger=ledger,
        )
        conservation(scenario, report, seed)
        assert sum(ledger.state_seconds().values()) == pytest.approx(
            4 * ledger.closed_at
        )
