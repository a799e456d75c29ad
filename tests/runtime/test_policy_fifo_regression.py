"""``policy="fifo"`` must reproduce the pre-policy loop bit-exactly.

The policy subsystem replaced the serving simulator's hardwired
dispatch; the contract is that the default ``fifo`` policy is not
"close to" but *bit-identical* to the original event loop — every
float in the report, including the ``cost_price_units`` integral,
across the regression matrix.  That loop is retired: its reports on
the matrix are pinned in ``data/golden_fifo_baseline.json``, which
was checked field for field against the loop before it was deleted.
On scenarios without SLO annotations ``edf`` and
``deferrable-window`` degrade to the same order (all deadlines are
infinite, nothing is deferrable), so all three policies must agree
there too — including with ``--stripe K`` gang dispatch, which the
original loop predates.
"""

import pathlib
import sys

import pytest

from repro.core import FabConfig
from repro.runtime import (
    FifoPolicy,
    ServingSimulator,
    build_scenarios,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _golden_grid import (  # noqa: E402
    FIFO_BASELINE_PATH,
    assert_matches_golden,
    fifo_runs,
    load_golden,
    report_dict,
)

CONFIG = FabConfig()
SCENARIO_NAMES = ("interactive", "batch", "analytics", "mixed")
SEEDS = (0, 3)
GOLDEN = load_golden(FIFO_BASELINE_PATH)
POINTS = dict(fifo_runs())


def assert_reports_identical(got, want, check_policy_fields=True):
    assert got.scenario == want.scenario
    assert got.makespan_s == want.makespan_s
    assert got.jobs_done == want.jobs_done
    assert got.device_utilization == want.device_utilization
    assert got.key_hit_rate == want.key_hit_rate
    assert got.key_bytes_loaded == want.key_bytes_loaded
    assert got.batches == want.batches
    assert got.mean_batch_size == want.mean_batch_size
    assert got.per_device_jobs == want.per_device_jobs
    assert got.cost_price_units == want.cost_price_units
    assert got.slo_attainment == want.slo_attainment
    assert got.per_tenant_slo == want.per_tenant_slo

    def per_workload(report):
        return {
            w.name: (
                w.jobs,
                w.throughput_jps,
                w.p50_ms,
                w.p95_ms,
                w.p99_ms,
                w.mean_ms,
                w.slo_attainment,
                w.rejected,
            )
            for w in report.per_workload
        }

    assert per_workload(got) == per_workload(want)
    if check_policy_fields:
        assert got.rejected_jobs == want.rejected_jobs == 0
        assert got.deferred_jobs == want.deferred_jobs == 0


class TestFifoMatchesBaseline:
    """The original regression matrix, now through the policy layer."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_canned_scenarios(self, name, seed):
        key = f"{name}/seed{seed}"
        got = report_dict(POINTS[key])
        assert got["policy"] == "fifo"
        assert_matches_golden(GOLDEN, key, got)

    def test_policy_instance_equals_name(self):
        scenarios = build_scenarios(CONFIG, num_devices=2, duration_s=0.4)
        sim = ServingSimulator(CONFIG, num_devices=2, max_batch=4)
        by_name = sim.run(scenarios["mixed"], seed=7, policy="fifo")
        by_instance = sim.run(scenarios["mixed"], seed=7, policy=FifoPolicy())
        assert_reports_identical(by_name, by_instance)

    def test_default_policy_is_fifo(self):
        scenarios = build_scenarios(CONFIG, num_devices=2, duration_s=0.3)
        sim = ServingSimulator(CONFIG, num_devices=2)
        default = sim.run(scenarios["interactive"], seed=1)
        explicit = sim.run(scenarios["interactive"], seed=1, policy="fifo")
        assert default.policy == "fifo"
        assert_reports_identical(default, explicit)

    def test_annotated_scenario_still_matches_baseline(self):
        """SLO annotations change *accounting*, never fifo's schedule:
        the original loop ignored deadlines, so a fifo run over an
        annotated scenario must still match its golden float for
        float — including the (possibly < 1) SLO attainment."""
        key = "slo_mixed/seed2"
        got = report_dict(POINTS[key])
        assert got["slo_attainment"] is not None
        assert_matches_golden(GOLDEN, key, got)


class TestUnannotatedPoliciesDegradeToFifo:
    """Without deadlines or deferrable jobs every policy is fifo."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("policy", ("edf", "deferrable-window"))
    def test_canned_scenarios(self, name, policy):
        scenarios = build_scenarios(CONFIG, num_devices=4, duration_s=0.4)
        sim = ServingSimulator(CONFIG, num_devices=4)
        fifo = sim.run(scenarios[name], seed=0, policy="fifo")
        other = sim.run(scenarios[name], seed=0, policy=policy)
        assert other.policy == policy
        assert_reports_identical(fifo, other)


class TestStripedGangDispatch:
    """--stripe K composes with every policy: the striped training
    class gang-occupies K boards and, unannotated, every policy must
    reproduce fifo's gang schedule bit-exactly (the original loop
    predates striping, so fifo itself is the reference here — its
    equivalence to merged single-board serving is pinned separately in
    ``test_striped_serving.py``)."""

    STRIPE = 2

    def _scenarios(self):
        return build_scenarios(
            CONFIG,
            num_devices=4,
            duration_s=0.4,
            training_stripe=self.STRIPE,
        )

    @pytest.mark.parametrize("policy", ("edf", "deferrable-window"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_striped_policies_match_fifo(self, policy, seed):
        scenarios = self._scenarios()
        sim = ServingSimulator(CONFIG, num_devices=4)
        fifo = sim.run(scenarios["mixed"], seed=seed, policy="fifo")
        other = sim.run(scenarios["mixed"], seed=seed, policy=policy)
        assert_reports_identical(fifo, other)

    def test_striped_fifo_is_deterministic(self):
        scenarios = self._scenarios()
        sim = ServingSimulator(CONFIG, num_devices=4)
        first = sim.run(scenarios["mixed"], seed=9, policy="fifo")
        second = sim.run(scenarios["mixed"], seed=9, policy="fifo")
        assert first.jobs_done > 0
        assert_reports_identical(first, second)


def test_every_fifo_golden_has_a_grid_point():
    # 4 canned scenarios x 2 seeds, the SLO mix, and the contended,
    # serial and merged-striped points pinned by the sibling suites.
    assert sorted(POINTS) == sorted(GOLDEN)
    assert len(GOLDEN) == 12
