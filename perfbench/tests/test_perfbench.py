"""Tests for the benchmark's own helpers and its output contract."""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from checks import (beyond_p99, board_second_errors, capacity_load,
                    conservation_errors, geomean, paper_errors)
from manifest import benchmark_json, manifest_json
from repro.core import FabConfig
from repro.experiments.common import ExperimentResult, ExperimentRow
from repro.runtime import ServingSimulator, build_slo_scenario
from run import pass_times_at_reference_speed
from speed import INTERVAL_S, NOMINAL_S, SpeedSampler, at_reference_speed
from tracer import Tracer, attribution, layer_self_times, self_times

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def nested_tracer():
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("root") as root:
        with tracer.span("a"):
            with tracer.span("leaf"):
                pass
        with tracer.span("b"):
            pass
    return tracer, root.sid


class TestTracer:
    def test_self_time_of_nested_spans(self):
        tracer, _ = nested_tracer()
        by_name = {s.name: t for s, t in zip(
            tracer.spans, self_times(tracer.spans).values())}
        assert by_name == {"root": 3, "a": 2, "leaf": 1, "b": 4}

    def test_spans_of_one_pass_share_the_root_id(self):
        tracer, root = nested_tracer()
        assert {s.root for s in tracer.spans} == {root}
        assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]

    def test_attribution_reconciles_and_reports_coverage(self):
        tracer, root = nested_tracer()
        check = attribution(tracer.spans, root)
        assert check.ok
        assert (check.total_s, check.attributed_s, check.residual_s) == (
            10, 7, 3)
        assert layer_self_times(tracer.spans, root) == {
            "a": 2, "leaf": 1, "b": 4}

    def test_attribution_rejects_a_child_outside_its_parent(self):
        tracer, root = nested_tracer()
        tracer.spans[3].end = 11  # b now ends after the root
        assert not attribution(tracer.spans, root).ok

    def test_wrap_counts_and_restores(self):
        class Target:
            def work(self, n):
                return list(range(n))

        tracer = Tracer()
        original = Target.work
        with tracer.patched([(Target, "work", "layer"),
                             (Target, "work", "outer")]):
            assert Target().work(3) == [0, 1, 2]
        assert Target.work is original
        assert tracer.counts == {"layer.calls": 1, "outer.calls": 1}
        outer, inner = tracer.spans
        assert (outer.name, inner.name, inner.parent) == (
            "outer", "layer", outer.sid)

    def test_materialize_charges_a_generator_to_its_span(self):
        class Source:
            def items(self):
                yield from (1, 2, 3)

        tracer = Tracer()
        source = Source()
        tracer.wrap(source, "items", "gen", materialize=True,
                    on_result=lambda t, r: t.count("gen.items", len(r)))
        try:
            assert list(source.items()) == [1, 2, 3]
        finally:
            tracer.restore()
        assert "items" not in vars(source)
        assert tracer.counts["gen.items"] == 3


class TestScorers:
    def table(self):
        return ExperimentResult("t", "hand-made", ["model", "paper"], [
            ExperimentRow("FAB", {"model": 1.1, "paper": 1.0}),
            ExperimentRow("GPU", {"model": 5.0, "paper": 10.0}),
            ExperimentRow("FAB-2", {"model": 0.5, "paper": 1.0}),
        ])

    def test_paper_error_per_row(self):
        errors = paper_errors(self.table(), "model", "paper",
                              ("FAB", "FAB-2"))
        assert errors == pytest.approx({"FAB": 0.1, "FAB-2": 0.5})
        assert len(paper_errors(self.table(), "model", "paper")) == 3

    def test_paper_error_rejects_a_missing_row(self):
        with pytest.raises(KeyError):
            paper_errors(self.table(), "model", "paper", ("FAB-3",))

    def test_geomean(self):
        assert geomean([0.1, 0.4]) == pytest.approx(0.2)

    @pytest.mark.parametrize("slo", [40.0, 55.0, 70.0, 90.0, 130.0, 500.0])
    def test_capacity_ladder_on_a_monotone_p99_curve(self, slo):
        ladder = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)

        def p99(load):
            return 50.0 + 60.0 * load ** 4

        expected = max((load for load in ladder if p99(load) <= slo),
                       default=0.0)
        found, evaluated = capacity_load(ladder, lambda x: p99(x) <= slo)
        assert found == expected
        assert evaluated <= 4  # log2 of 8 rungs, plus one

    def test_beyond_p99(self):
        assert beyond_p99(1000) == 10
        assert beyond_p99(999) == 9


class TestReferenceSpeed:
    def test_a_slower_host_does_not_move_the_rescaled_time(self):
        assert at_reference_speed(2.0, [NOMINAL_S]) == pytest.approx(2.0)
        # The same work on a host running at half speed.
        assert at_reference_speed(4.0, [2 * NOMINAL_S, 2 * NOMINAL_S,
                                        9.0]) == pytest.approx(2.0)

    def test_each_pass_uses_the_samples_taken_during_it(self):
        samples = [[NOMINAL_S] * 16, [2 * NOMINAL_S] * 16]
        assert pass_times_at_reference_speed([1.0, 4.0], samples) == \
            pytest.approx([1.0, 2.0])

    def test_sparse_samples_widen_to_neighbouring_passes(self):
        samples = [[NOMINAL_S] * 4] * 5 + [[2 * NOMINAL_S] * 4] * 5
        rescaled = pass_times_at_reference_speed([1.0] * 10, samples)
        # Each window widens to 16 samples: the first pass sees passes
        # 0-3 (all nominal), the last passes 6-9 (all slow) and pass 4
        # passes 2-6 (12 nominal, 8 slow).
        assert rescaled[0] == pytest.approx(1.0)
        assert rescaled[4] == pytest.approx(1.0)
        assert rescaled[-1] == pytest.approx(0.5)

    def test_the_sampler_ticks_while_active_and_then_stops(self):
        previous = signal.getsignal(signal.SIGALRM)
        with SpeedSampler() as sampler:
            deadline = time.perf_counter() + 10 * INTERVAL_S
            while time.perf_counter() < deadline:
                pass
        ticks = len(sampler.samples)
        assert 5 <= ticks <= 11 and all(t > 0 for t in sampler.samples)
        time.sleep(2 * INTERVAL_S)
        assert len(sampler.samples) == ticks
        assert signal.getsignal(signal.SIGALRM) is previous


class TestOutputChecks:
    @pytest.fixture(scope="class")
    def served(self):
        config = FabConfig()
        scenario = build_slo_scenario(config, duration_s=0.05,
                                      target_load=0.5)
        report = ServingSimulator(config).run(scenario, seed=3,
                                              policy="edf")
        return report, len(scenario.generate(3))

    def test_conservation_accepts_a_real_report(self, served):
        report, arrivals = served
        assert conservation_errors(report, arrivals) == []

    def test_conservation_rejects_a_report_that_lost_a_job(self, served):
        report, arrivals = served
        lost = dataclasses.replace(report, jobs_done=report.jobs_done - 1)
        assert len(conservation_errors(lost, arrivals)) == 1

    def test_board_seconds_must_partition_the_pool(self, served):
        report, _ = served
        report = dataclasses.replace(report, board_seconds=10.0)
        states = {"active": 12.0, "parked": 4.0}
        assert board_second_errors(report, states, dict(states), 4,
                                   4.0) == []
        assert board_second_errors(report, states, {"active": 12.0}, 4,
                                   4.0)
        assert board_second_errors(report, states, states, 4, 5.0)


class TestContract:
    def test_benchmark_json_is_generated_from_spec(self):
        on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert on_disk == benchmark_json()

    def test_manifest_is_generated_from_spec(self):
        on_disk = json.loads((BENCH / "manifest.json").read_text())
        assert on_disk == manifest_json(on_disk["provenance"])

    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(BENCH, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve_des",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert done.stdout == ""
