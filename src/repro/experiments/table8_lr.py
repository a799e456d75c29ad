"""Table 8: logistic-regression training time per iteration.

The HELR workload (11,982 samples, 196 features, 1024-sample batches,
sparse 256-slot ciphertexts, bootstrap every iteration) evaluated on
FAB-1, FAB-2 and the calibrated baselines.
"""

from __future__ import annotations

from ..core.params import FabConfig
from ..perf.devices import build_baseline_devices
from ..perf.fab import Fab2Device
from ..perf.metrics import cycles_speedup
from .common import ExperimentResult, ExperimentRow, print_result

#: Table 8 of the paper: seconds per LR training iteration.
PAPER_TABLE8 = {
    "Lattigo": 37.05,
    "GPU-2": 0.775,
    "F1": 1.024,
    "BTS-2": 0.028,
    "FAB-1": 0.103,
    "FAB-2": 0.081,
}


def run() -> ExperimentResult:
    """Reproduce the LR-training comparison."""
    config = FabConfig()
    fab2 = Fab2Device(config)
    fab1 = fab2.single
    fab2_s = fab2.lr_iteration_seconds()
    devices = build_baseline_devices()
    rows = []
    for name in ("Lattigo", "GPU-2", "F1", "BTS-2"):
        device = devices[name]
        model_s = device.lr_iteration_seconds()
        rows.append(ExperimentRow(name, {
            "model_s": model_s,
            "paper_s": PAPER_TABLE8[name],
            "fab2_speedup_time": model_s / fab2_s,
            "fab2_speedup_cycles": cycles_speedup(
                model_s, device.spec.freq_hz, fab2_s, config.clock_hz),
        }))
    fab1_s = fab1.lr_iteration_seconds()
    rows.append(ExperimentRow("FAB-1", {
        "model_s": fab1_s,
        "paper_s": PAPER_TABLE8["FAB-1"],
        "fab2_speedup_time": fab1_s / fab2_s,
        "fab2_speedup_cycles": fab1_s / fab2_s,
    }))
    rows.append(ExperimentRow("FAB-2", {
        "model_s": fab2_s,
        "paper_s": PAPER_TABLE8["FAB-2"],
        "fab2_speedup_time": 1.0,
        "fab2_speedup_cycles": 1.0,
    }))
    return ExperimentResult(
        experiment_id="table8",
        title="LR training: average seconds per iteration "
              "(sparsely-packed, 256 slots)",
        columns=["model_s", "paper_s", "fab2_speedup_time",
                 "fab2_speedup_cycles"],
        rows=rows,
        notes="GPU-1 omitted as in the paper; bootstrap after every "
              "iteration")


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
