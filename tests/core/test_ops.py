"""Tests for the FAB operation cost model against the paper's Table 5
and bootstrap behaviour."""

import pytest

from repro.core import FabConfig, FabOpModel
from repro.core.ops import OpReport
from repro.core.scheduler import TaskGraph


@pytest.fixture(scope="module")
def model():
    return FabOpModel(FabConfig())


@pytest.fixture(scope="module")
def config():
    return FabConfig()


class TestBasicOps:
    def test_add_matches_paper(self, model, config):
        """Table 5: Add = 0.04 ms."""
        ms = model.add().seconds(config) * 1e3
        assert ms == pytest.approx(0.04, rel=0.15)

    def test_multiply_matches_paper(self, model, config):
        """Table 5: Mult = 1.71 ms."""
        ms = model.multiply().seconds(config) * 1e3
        assert ms == pytest.approx(1.71, rel=0.15)

    def test_rotate_matches_paper(self, model, config):
        """Table 5: Rotate = 1.57 ms."""
        ms = model.rotate().seconds(config) * 1e3
        assert ms == pytest.approx(1.57, rel=0.15)

    def test_rescale_near_paper(self, model, config):
        """Table 5: Rescale = 0.19 ms (the model runs ~1.5x high —
        see EXPERIMENTS.md)."""
        ms = model.rescale().seconds(config) * 1e3
        assert 0.15 <= ms <= 0.35

    def test_faster_than_gpu_on_all_ops(self, model, config):
        """The Table 5 comparison shape: FAB beats the GPU everywhere."""
        gpu_ms = {"add": 0.16, "multiply": 2.96, "rescale": 0.49,
                  "rotate": 2.55}
        for op, gpu in gpu_ms.items():
            ours = getattr(model, op)().seconds(config) * 1e3
            assert ours < gpu, f"{op}: {ours:.3f} !< {gpu}"

    def test_ops_scale_with_level(self, model):
        for op in ("add", "multiply", "rotate", "rescale"):
            low = getattr(model, op)(8).cycles
            high = getattr(model, op)(24).cycles
            assert low < high

    def test_conjugate_equals_rotate(self, model):
        assert model.conjugate(12).cycles == model.rotate(12).cycles

    def test_hoisted_rotation_cheaper(self, model):
        assert model.rotate_hoisted(24).cycles < model.rotate(24).cycles

    def test_multiply_breakdown(self, model):
        report = model.multiply()
        assert set(report.breakdown) == {"tensor", "keyswitch", "fixup"}
        assert report.breakdown["keyswitch"] > report.breakdown["tensor"]


class TestKeySwitchMemo:
    """A model prices each (level, hoisted) key switch once: the task
    graph is built and scheduled on the first call only."""

    LEVELS = (None, 24, 8, 24, 8, None, 3)

    def test_graph_scheduled_once_per_level_and_variant(self, monkeypatch):
        scheduled = []
        schedule = TaskGraph.schedule

        def counting(graph, *args, **kwargs):
            scheduled.append(graph)
            return schedule(graph, *args, **kwargs)

        monkeypatch.setattr(TaskGraph, "schedule", counting)
        model = FabOpModel(FabConfig())
        for level in self.LEVELS:
            for op in ("keyswitch", "keyswitch_hoisted", "multiply",
                       "rotate", "rotate_hoisted", "conjugate"):
                getattr(model, op)(level)
        distinct = {model._level(level) for level in self.LEVELS}
        assert len(scheduled) == 2 * len(distinct)

    @pytest.mark.parametrize("hoisted", [False, True])
    def test_memoized_reports_equal_unmemoized(self, hoisted):
        model = FabOpModel(FabConfig())
        method = "keyswitch_hoisted" if hoisted else "keyswitch"
        datapath = model.keyswitch_datapath
        for level in self.LEVELS:
            limbs = model._level(level)
            raw = (datapath.hoisted_report(limbs) if hoisted
                   else datapath.report(limbs))
            cycles = model._overlap(raw.cycles)
            unmemoized = OpReport(method, cycles,
                                  limb_ntts=raw.counts.limb_ntts,
                                  modmults=raw.counts.modmults,
                                  hbm_bytes=raw.counts.hbm_total_bytes,
                                  breakdown={"keyswitch": cycles})
            first = getattr(model, method)(level)
            first.breakdown["keyswitch"] += 1  # a caller's edit stays its own
            again = getattr(model, method)(level)
            assert again == unmemoized
            assert again is not first
            assert again.breakdown is not first.breakdown


class TestBootstrap:
    def test_levels_after_matches_formula(self, model, config):
        """levels_after = L - (2 fftIter + 9) = 23 - 17 = 6."""
        boot = model.bootstrap()
        assert boot.levels_after == config.fhe.levels_after_bootstrap == 6

    def test_rotation_count_near_paper(self, model):
        """The paper stores ~60 rotation indices for bootstrapping."""
        boot = model.bootstrap()
        assert 40 <= boot.rotations <= 75

    def test_amortized_beats_cpu_and_gpu(self, model):
        """Table 7 shape: FAB < GPU-1 < Lattigo, FAB > BTS-2."""
        ours = model.amortized_mult_per_slot() * 1e6
        assert ours < 0.740   # GPU-1
        assert ours < 101.78  # Lattigo
        assert ours > 0.0455  # BTS-2 stays ahead (paper: 0.09x)

    def test_fft_iter_tradeoff(self, model):
        """Fig. 2: raising fftIter cuts bootstrap time but costs levels."""
        times = {f: model.bootstrap(fft_iter=f).cycles for f in (1, 2, 4)}
        assert times[1] > times[2] > times[4]
        levels = {f: model.bootstrap(fft_iter=f).levels_after
                  for f in (1, 2, 4)}
        assert levels[1] > levels[2] > levels[4]

    def test_amortized_optimum_interior(self, model):
        """Fig. 2: the amortized metric is optimized at fftIter ~ 4,
        not at either extreme."""
        metric = {f: model.amortized_mult_per_slot(fft_iter=f)
                  for f in (1, 4, 6)}
        assert metric[4] < metric[1]
        assert metric[4] <= metric[6]

    def test_sparse_bootstrap_cheaper(self, model):
        full = model.bootstrap().cycles
        sparse = model.bootstrap(slots=256).cycles
        assert sparse < full / 1.5

    def test_stage_breakdown_complete(self, model, config):
        boot = model.bootstrap()
        assert set(boot.stage_cycles) == {
            "mod_raise", "coeff_to_slot", "eval_mod", "slot_to_coeff"}
        assert sum(boot.stage_cycles.values()) == boot.cycles

    def test_eval_mod_dominates(self, model):
        """EvalMod is the largest bootstrap stage at the paper params."""
        boot = model.bootstrap()
        assert boot.stage_cycles["eval_mod"] == max(
            boot.stage_cycles.values())


class TestNttThroughput:
    def test_table6_shape_vs_heax(self):
        """Table 6 shape: FAB's NTT/Mult throughput beats HEAX."""
        from repro.core import heax_comparison_config
        model = FabOpModel(heax_comparison_config())
        cfg = model.config
        ntt_poly_per_sec = cfg.clock_hz / model.ntt_poly().cycles
        mult_per_sec = cfg.clock_hz / model.multiply().cycles
        assert ntt_poly_per_sec > 42_000   # HEAX NTT
        assert mult_per_sec > 2_600        # HEAX Mult
