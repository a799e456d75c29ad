"""Shared run grids for the bit-identity regression suites.

Three grids, three golden files under ``tests/runtime/data/``:

* ``golden_fault_free.json`` — fixed-pool runs on both engines,
  generated against the PR 7 tree (before the fault-injection work
  landed).  The regression tests replay the grid on the current tree
  and assert every report field that existed then is reproduced
  float-for-float.  Regenerating it writes only those fields
  (``FAULT_FREE_FIELDS``), so the fault fields stay out of it.
* ``golden_membership.json`` — DES runs whose pool membership moves:
  faults only, autoscaling only, and both, each under ``fifo`` and
  ``edf`` at two seeds, plus the EDF-under-faults liveness input.
  Every report field is pinned, so any drift in
  fault settlement, retry timing, drain arbitration or key residency
  on the membership path fails by name.
* ``golden_fifo_baseline.json`` — fixed-pool ``fifo`` DES runs on
  every input the original pre-heap event loop was once compared on:
  the canned scenarios, an SLO-annotated mix, a tenant-heavy
  thrashing cache, a serial single board and the striped suite's
  merged one-board run.  The file was written while that loop still
  existed, and each entry equalled its report field for field; the
  loop is deleted and the goldens stand in for it.  Each point
  carries its own simulator arguments.

Regenerate (only when an intentional behavior change is being blessed):

    PYTHONPATH=src python tests/runtime/_golden_grid.py [GRID]

where ``GRID`` is ``fault_free`` (the default), ``membership`` or
``fifo_baseline``.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
from typing import Dict, Iterator, Tuple

from repro.runtime import (JobClass, OpTrace, PriceSignal, Scenario,
                           ServingSimulator, Stream, StripePlan,
                           build_job_classes, build_scenarios,
                           build_slo_scenario, stripe_trace)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DATA_PATH = os.path.join(DATA_DIR, "golden_fault_free.json")
MEMBERSHIP_PATH = os.path.join(DATA_DIR, "golden_membership.json")
FIFO_BASELINE_PATH = os.path.join(DATA_DIR, "golden_fifo_baseline.json")

NUM_DEVICES = 4
DURATION_S = 0.5


#: The report fields ``golden_fault_free.json`` pins: every field the
#: report had before the fault, autoscaling and board-second fields.
FAULT_FREE_FIELDS = (
    "batches", "cost_price_units", "deferred_jobs", "device_utilization",
    "jobs_done", "key_bytes_loaded", "key_hit_rate", "makespan_s",
    "mean_batch_size", "per_device_jobs", "per_tenant_slo", "per_workload",
    "policy", "rejected_jobs", "scenario", "slo_attainment")


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


#: The striped suite's batch, shared with ``test_striped_serving.py``.
STRIPE = 4
GROUPS = 24          # divisible by STRIPE: every shard is identical
GROUP_OPS = 2


def batch_trace() -> OpTrace:
    """GROUPS identical two-op groups: an embarrassing batch."""
    trace = OpTrace("batchy")
    for _ in range(GROUPS):
        trace.record("multiply", 6)
        trace.record("rotate", 6, step=1)
    return trace


def batch_plan() -> StripePlan:
    return StripePlan.all_parallel(GROUPS * GROUP_OPS, group_size=GROUP_OPS)


def shard_class() -> JobClass:
    """One board's shard of :func:`batch_trace`, lowered single-board."""
    striped = stripe_trace(batch_trace(), STRIPE, plan=batch_plan())
    shard = striped.shards[0]
    assert all(len(s) == len(shard) for s in striped.shards)
    return JobClass.from_trace(shard)


def batch_scenario(job_class: JobClass, name: str) -> Scenario:
    return Scenario(name, 0.4, [
        Stream(job_class, rate_per_s=150.0, num_tenants=3,
               tenant_prefix="t")])


def fifo_runs() -> Iterator[Tuple[str, Dict]]:
    """Yield ``(key, run_kwargs)`` pairs for every input the fifo
    oracle tests pin; ``run_kwargs["simulator"]`` holds the
    ``ServingSimulator`` arguments."""
    scenarios = build_scenarios(num_devices=NUM_DEVICES,
                                duration_s=DURATION_S)
    for seed in (0, 3):
        for name in ("interactive", "batch", "analytics", "mixed"):
            yield (f"{name}/seed{seed}",
                   dict(scenario=scenarios[name], seed=seed,
                        simulator=dict(num_devices=NUM_DEVICES)))
    yield ("slo_mixed/seed2",
           dict(scenario=build_slo_scenario(num_devices=3, duration_s=0.3,
                                            target_load=0.8),
                seed=2, simulator=dict(num_devices=3)))
    classes = build_job_classes()
    contended = Scenario("contended", 0.4, [
        Stream(cls, rate_per_s=400.0, num_tenants=16)
        for cls in classes.values()])
    yield ("contended/seed9",
           dict(scenario=contended, seed=9,
                simulator=dict(
                    num_devices=3, max_batch=2,
                    key_cache_bytes=2 * classes["lr_inference"].key_bytes)))
    serial = Scenario("serial", 0.3, [
        Stream(classes["lr_inference"], rate_per_s=150.0, num_tenants=2)])
    yield ("serial/seed5",
           dict(scenario=serial, seed=5,
                simulator=dict(num_devices=1, max_batch=1)))
    yield ("merged/seed11",
           dict(scenario=batch_scenario(shard_class(), "merged"), seed=11,
                simulator=dict(num_devices=1)))


def normalize(report) -> Dict:
    """A report as JSON-normalized plain data (so tuple-vs-list and
    int-key-vs-str-key artifacts of JSON storage never produce false
    diffs)."""
    return json.loads(json.dumps(dataclasses.asdict(report)))


def report_dict(run_kwargs: Dict) -> Dict:
    """Run one grid point and return its report, normalized.
    A point without a ``simulator`` entry runs on ``NUM_DEVICES``
    boards with the default simulator arguments."""
    kwargs = dict(run_kwargs)
    scenario = kwargs.pop("scenario")
    seed = kwargs.pop("seed")
    sim = ServingSimulator(**kwargs.pop("simulator",
                                        dict(num_devices=NUM_DEVICES)))
    return normalize(sim.run(scenario, seed=seed, **kwargs))


def load_golden(path: str) -> Dict[str, Dict]:
    with open(path) as fh:
        return json.load(fh)


def assert_matches_golden(golden: Dict[str, Dict], key: str,
                          got: Dict) -> None:
    """Fail by field name unless ``got`` reproduces every field of
    ``golden[key]``.  NaN equals NaN; a field missing from ``got``
    differs."""
    assert key in golden, f"no golden entry for {key}; regenerate the grid"

    def canonical(value) -> str:
        # float repr round-trips exactly, and NaN == NaN as text.
        return json.dumps(value, sort_keys=True)
    want = golden[key]
    mismatched = {field: (want[field], got.get(field)) for field in want
                  if field not in got
                  or canonical(got[field]) != canonical(want[field])}
    assert not mismatched, (
        f"{key}: report drifted from the golden on {sorted(mismatched)}: "
        f"{mismatched}")


#: Script argument -> (golden file, grid, pinned fields or None for all).
GRIDS = {
    "fault_free": (DATA_PATH, golden_runs, FAULT_FREE_FIELDS),
    "membership": (MEMBERSHIP_PATH, membership_runs, None),
    "fifo_baseline": (FIFO_BASELINE_PATH, fifo_runs, None),
}


def compute_golden(runs=golden_runs, fields=None) -> Dict[str, Dict]:
    golden = {key: report_dict(kwargs) for key, kwargs in runs()}
    if fields is None:
        return golden
    return {key: {field: report[field] for field in fields}
            for key, report in golden.items()}


if __name__ == "__main__":
    path, runs, fields = GRIDS[sys.argv[1] if len(sys.argv) > 1
                               else "fault_free"]
    os.makedirs(DATA_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(compute_golden(runs, fields), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
