"""Recorder-output goldens: exact bytes of every windowed series.

The integrate-back properties in ``test_metrics.py`` hold the series to
float round-off; these pin them bit for bit.  Each run's
:meth:`MetricsRecorder.to_dict` is hashed one SHA-256 per top-level key
and one per ``windows`` series (over canonical JSON, where a float's
repr round-trips exactly), so a recorder change that reorders a single
floating-point addition fails a named series of a named run.

The runs cover what the recorder sees in practice: the perfbench
``serve_chaos`` input (faults + predictive autoscaling + backoff retry
on 8 boards) at two window widths, every policy on both engines under
a diurnal price, and a striped gang class.

Regenerate (only with a stated cause for the change) with::

    PYTHONPATH=src python tests/obs/test_metrics_golden.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib

import pytest

from repro.core.params import FabConfig
from repro.obs import MetricsRecorder
from repro.runtime.policies import PriceSignal
from repro.runtime.serving import ServingSimulator, build_slo_scenario

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "data" / \
    "metrics_golden.json"

CONFIG = FabConfig()

#: The perfbench ``serve_chaos`` workload's input.
CHAOS = dict(
    policy="edf",
    faults="poisson:mtbf=4.0,mttr=0.02",
    retry="backoff:base=0.005,jitter=0.25",
    autoscale=("predictive:window=0.1,horizon=0.05,target=0.6,"
               "cooldown=0.02,avail=1+spare:n=1"))


def _chaos_run(window_s: float, seed: int = 1):
    def run():
        scenario = build_slo_scenario(
            CONFIG, duration_s=30.0, target_load=0.2,
            interactive_fraction=1.0).with_arrivals("diurnal:amplitude=0.9")
        recorder = MetricsRecorder(window_s=window_s)
        ServingSimulator(CONFIG, num_devices=8).run(
            scenario, seed=seed, recorder=recorder, **CHAOS)
        return recorder
    return run


def _priced_run(policy: str, engine: str):
    def run():
        scenario = build_slo_scenario(CONFIG, num_devices=4,
                                      duration_s=0.5, target_load=0.8)
        recorder = MetricsRecorder(window_s=0.01)
        ServingSimulator(CONFIG, num_devices=4).run(
            scenario, seed=3, policy=policy, engine=engine,
            price=PriceSignal.diurnal(peak=2.0, trough=0.5, slot_s=0.1),
            recorder=recorder)
        return recorder
    return run


def _striped_run():
    scenario = build_slo_scenario(CONFIG, num_devices=4, duration_s=0.5,
                                  target_load=0.8, training_stripe=2)
    recorder = MetricsRecorder(window_s=0.01)
    ServingSimulator(CONFIG, num_devices=4).run(
        scenario, seed=5, policy="edf", recorder=recorder)
    return recorder


RUNS = {
    "chaos_seed1_w0.1": _chaos_run(0.1),
    "chaos_seed1_w0.013": _chaos_run(0.013),
    **{f"{policy}_{engine}_diurnal": _priced_run(policy, engine)
       for policy in ("fifo", "edf", "deferrable-window")
       for engine in ("des", "fast")},
    "striped_edf_des": _striped_run,
}


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digests(data: dict) -> dict:
    """One digest per top-level key, with ``windows`` split into one
    digest per series."""
    out = {key: _sha(value) for key, value in data.items()
           if key != "windows"}
    out.update({f"windows.{name}": _sha(series)
                for name, series in data["windows"].items()})
    return out


@functools.lru_cache(maxsize=None)
def run_digests(name: str) -> dict:
    return digests(RUNS[name]().to_dict())


def _golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


GOLDEN = _golden()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_recorder_output_matches_golden(name):
    assert name in GOLDEN, f"no golden entry for {name}; regenerate"
    got, want = run_digests(name), GOLDEN[name]
    assert sorted(got) == sorted(want), f"{name}: recorder keys changed"
    drifted = sorted(key for key in want if got[key] != want[key])
    assert not drifted, f"{name}: recorder output drifted on {drifted}"


def test_golden_covers_every_run():
    assert sorted(GOLDEN) == sorted(RUNS)
    chaos = GOLDEN["chaos_seed1_w0.1"]
    # The chaos input exercises every optional series.
    for series in ("board_faults", "healthy_boards", "pool_resizes",
                   "provisioned_boards", "ledger_transitions"):
        assert f"windows.{series}" in chaos
    assert "windows.price_mean" in GOLDEN["fifo_fast_diurnal"]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({name: run_digests(name) for name in sorted(RUNS)}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
