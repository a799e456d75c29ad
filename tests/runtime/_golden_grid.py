"""Shared run grids for the bit-identity regression suites.

Two grids, two golden files under ``tests/runtime/data/``:

* ``golden_fault_free.json`` — fixed-pool runs on both engines,
  generated against the PR 7 tree (before the fault-injection work
  landed).  The regression tests replay the grid on the current tree
  and assert every report field that existed then is reproduced
  float-for-float.
* ``golden_membership.json`` — DES runs whose pool membership moves:
  faults only, autoscaling only, and both, each under ``fifo`` and
  ``edf`` at two seeds, plus the EDF-under-faults liveness input.
  Every report field is pinned, so any drift in
  fault settlement, retry timing, drain arbitration or key residency
  on the membership path fails by name.

Regenerate (only when an intentional behavior change is being blessed):

    PYTHONPATH=src python tests/runtime/_golden_grid.py [fault_free|membership]
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
from typing import Dict, Iterator, Tuple

from repro.runtime.policies import PriceSignal
from repro.runtime.serving import (ServingSimulator, build_scenarios,
                                   build_slo_scenario)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DATA_PATH = os.path.join(DATA_DIR, "golden_fault_free.json")
MEMBERSHIP_PATH = os.path.join(DATA_DIR, "golden_membership.json")

NUM_DEVICES = 4
DURATION_S = 0.5


def golden_runs() -> Iterator[Tuple[str, Dict]]:
    """Yield ``(key, run_kwargs)`` pairs covering the PR 7 surface.

    ``run_kwargs`` holds everything needed to reproduce one report:
    the scenario builder inputs and the ``ServingSimulator.run``
    arguments.  Keys are stable identifiers used in the golden file.
    """
    scenarios = build_scenarios(num_devices=NUM_DEVICES,
                                duration_s=DURATION_S)
    striped = build_scenarios(num_devices=NUM_DEVICES,
                              duration_s=DURATION_S,
                              training_stripe=2)
    slo = build_slo_scenario(num_devices=NUM_DEVICES,
                             duration_s=DURATION_S)
    diurnal_price = PriceSignal.diurnal(slot_s=DURATION_S / 4.0)

    for engine in ("des", "fast"):
        yield (f"interactive/fifo/{engine}/seed0",
               dict(scenario=scenarios["interactive"], seed=0,
                    policy="fifo", engine=engine))
        yield (f"mixed/fifo/{engine}/seed7",
               dict(scenario=scenarios["mixed"], seed=7,
                    policy="fifo", engine=engine))
        yield (f"mixed-striped2/fifo/{engine}/seed0",
               dict(scenario=striped["mixed"], seed=0,
                    policy="fifo", engine=engine))
        yield (f"slo_mixed/edf/{engine}/seed0",
               dict(scenario=slo, seed=0, policy="edf", engine=engine))
        yield (f"slo_mixed/deferrable/{engine}/seed0",
               dict(scenario=slo, seed=0, policy="deferrable-window",
                    price=diurnal_price, engine=engine))
        yield (f"mixed-mmpp/fifo/{engine}/seed3",
               dict(scenario=scenarios["mixed"].with_arrivals(
                        "mmpp:burst=3.0,duty=0.3,dwell=0.1"),
                    seed=3, policy="fifo", engine=engine))


#: Membership grid: a short SLO-annotated horizon with striped training
#: gangs, at a load where the reactive scaler both parks and unparks.
MEMBERSHIP_DURATION_S = 0.3
MEMBERSHIP_FAULTS = dict(faults="poisson:mtbf=0.3,mttr=0.03",
                         retry="backoff:base=0.005")
MEMBERSHIP_AUTOSCALE = dict(
    autoscale="reactive:low=0.5,high=0.9,interval=0.01,cooldown=0.01")


def membership_runs() -> Iterator[Tuple[str, Dict]]:
    """Yield ``(key, run_kwargs)`` pairs for the membership grid:
    {faults, autoscale, faults+autoscale} x {fifo, edf} x seeds 1, 2,
    all on the DES (the only engine whose pool membership moves), plus
    the EDF liveness input: faults at the default SLO load, where every
    board once deferred to ``inf`` and the run never returned."""
    scenario = build_slo_scenario(num_devices=NUM_DEVICES,
                                  duration_s=MEMBERSHIP_DURATION_S,
                                  target_load=0.5, training_stripe=2)
    mechanisms = {
        "faults": MEMBERSHIP_FAULTS,
        "autoscale": MEMBERSHIP_AUTOSCALE,
        "faults+autoscale": {**MEMBERSHIP_FAULTS, **MEMBERSHIP_AUTOSCALE},
    }
    for mechanism, options in mechanisms.items():
        for policy in ("fifo", "edf"):
            for seed in (1, 2):
                yield (f"{mechanism}/{policy}/seed{seed}",
                       dict(scenario=scenario, seed=seed, policy=policy,
                            **options))
    yield ("faults-liveness/edf/seed1",
           dict(scenario=build_slo_scenario(
                    num_devices=NUM_DEVICES,
                    duration_s=MEMBERSHIP_DURATION_S),
                seed=1, policy="edf", **MEMBERSHIP_FAULTS))


def report_dict(run_kwargs: Dict) -> Dict:
    """Run one grid point and return its report as JSON-normalized
    plain data (so tuple-vs-list and int-key-vs-str-key artifacts of
    JSON storage never produce false diffs)."""
    kwargs = dict(run_kwargs)
    scenario = kwargs.pop("scenario")
    seed = kwargs.pop("seed")
    sim = ServingSimulator(num_devices=NUM_DEVICES)
    report = sim.run(scenario, seed=seed, **kwargs)
    return json.loads(json.dumps(dataclasses.asdict(report)))


#: Script argument -> (golden file, grid).
GRIDS = {
    "fault_free": (DATA_PATH, golden_runs),
    "membership": (MEMBERSHIP_PATH, membership_runs),
}


def compute_golden(runs=golden_runs) -> Dict[str, Dict]:
    return {key: report_dict(kwargs) for key, kwargs in runs()}


if __name__ == "__main__":
    path, runs = GRIDS[sys.argv[1] if len(sys.argv) > 1 else "fault_free"]
    os.makedirs(DATA_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(compute_golden(runs), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
