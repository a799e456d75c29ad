"""Resilience x autoscale sweep: spares + elasticity vs either alone.

PR 8 gave the serving simulator fault injection; PR 9 gave it
voluntary elasticity; PR 10's unified membership ledger lets one run
carry both.  This driver quantifies the payoff of combining them.
Every mechanism sees the *same* faulty diurnal arrival stream (same
seed, same fault trace), so per-point comparisons are exact:

* ``static`` — the fixed pool riding out faults with retries only.
  Pays ``makespan x num_devices`` board-seconds regardless of load.
* ``elastic`` — availability-aware predictive autoscaling
  (``avail=1`` divides the sized target by the measured per-window
  availability).  Thrifty in the diurnal trough, but a fault wave can
  still catch the shrunken pool under-provisioned.
* ``spares`` — the ledger-backed warm-standby policy (``spare:n=``):
  run ``num_devices - n`` boards and unpark a standby for every
  in-service board currently down.  Goodput holds through faults, but
  the near-static base never harvests the trough.
* ``combined`` — ``predictive+spare``: the predictive target sized by
  availability, plus a standby per down board.  Trough savings *and*
  fault absorption.

The headline metric is **cost per goodput**
(:attr:`repro.runtime.serving.ServingReport.board_s_per_good_job`).
The acceptance invariant the CI test pins: under faulty diurnal load,
``combined`` is at least as cheap per deadline-met job as *both*
single mechanisms.

CLI::

    python -m repro resilience-autoscale-sweep --duration 1.0 \
        --json resilience_autoscale_sweep.json
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.params import FabConfig
from ..runtime.autoscaler import make_scale_policy
from ..runtime.faults import make_fault_process, make_retry_policy
from .autoscale_sweep import (
    AutoscalePoint,
    cost_ms_cell,
    interactive_scenario,
    slo_cell,
)
from .common import Sweep, SweepReport, distinct, labelled, option, positive, spec_check

#: Mechanisms swept at every grid point: ``(label, autoscale spec)``
#: with ``None`` marking the fixed pool.  All four run under the same
#: fault process and retry policy; only pool membership differs.
DEFAULT_MECHANISMS = (
    ("static", None),
    ("elastic", "predictive:window=0.1,horizon=0.05,target=0.7,cooldown=0.02,avail=1"),
    ("spares", "spare:n=1"),
    (
        "combined",
        "predictive:window=0.1,horizon=0.05,target=0.7,cooldown=0.02,"
        "avail=1+spare:n=1",
    ),
)

#: Arrival patterns; the diurnal wave is the headline point.
DEFAULT_ARRIVALS = (("diurnal", "diurnal:amplitude=0.9"),)

#: Fault process shared by every mechanism: frequent transient board
#: downs (several per run) so fault absorption is actually exercised.
DEFAULT_FAULTS = "poisson:mtbf=0.08,mttr=0.02"

#: Retry policy shared by every mechanism.
DEFAULT_RETRY = "backoff:base=0.005,jitter=0.25"

#: Mean offered load (see autoscale_sweep: 0.45 gives a saturated
#: crest and a near-idle trough under amplitude 0.9).
DEFAULT_TARGET_LOAD = 0.45


@dataclass
class ResilienceOutcome:
    """One mechanism's result on one grid point's faulty stream."""

    point: AutoscalePoint
    mechanism: str  # "static" | "elastic" | "spares" | "combined"
    scale: Optional[str]
    good_jobs: int
    goodput_jps: float
    jobs_done: int
    rejected: int
    shed: int
    shed_degraded: int
    slo_attainment: Optional[float]
    makespan_s: float
    board_faults: int
    failures: int
    retries: int
    wasted_service_s: float
    board_seconds: float
    board_s_per_good_job: float
    resize_events: int
    scale_ups: int
    scale_downs: int


@dataclass
class ResilienceSweepReport(SweepReport):
    """The full grid plus the combined-vs-single verdict."""

    mechanisms: Tuple[Tuple[str, Optional[str]], ...]
    faults: str
    retry: str
    duration_s: float
    target_load: float
    seed: int

    experiment_id = "resilience_autoscale_sweep"
    title = "Resilience x autoscale: spares + elasticity vs either alone"
    arm = "mechanism"
    columns = {
        "mech": "mechanism",
        "devices": "point.devices",
        "arrivals": "point.arrivals",
        "good": "good_jobs",
        "done": "jobs_done",
        "faults": "board_faults",
        "shed": lambda o: o.shed + o.shed_degraded,
        "slo": slo_cell,
        "board_s": lambda o: round(o.board_seconds, 4),
        "cost_ms": cost_ms_cell,
        "resizes": "resize_events",
    }

    def headline(self) -> Dict[str, object]:
        """``combined_vs_single``: per-point cost-per-goodput of every
        mechanism plus whether ``combined`` is at least as cheap as
        both single mechanisms (the invariant CI pins)."""
        rows = []
        for label, per_mech in sorted(self.by_point().items()):
            costs = {
                name: outcome.board_s_per_good_job
                for name, outcome in per_mech.items()
            }
            combined = costs.get("combined")
            singles = [costs[name] for name in ("elastic", "spares") if name in costs]
            wins = (
                combined is not None
                and singles
                and math.isfinite(combined)
                and all(combined <= cost for cost in singles)
            )
            rows.append({"point": label, "costs": costs, "combined_wins": wins})
        return {"combined_vs_single": rows}

    def notes(self) -> str:
        verdicts = self.headline()["combined_vs_single"]
        wins = sum(1 for row in verdicts if row["combined_wins"])
        return (
            f"{len(self.by_point())} grid points x "
            f"{len(self.mechanisms)} mechanisms under {self.faults}; "
            "combined beats both single mechanisms on cost per "
            f"goodput at {wins}/{len(verdicts)} points"
        )


def _arms(point: AutoscalePoint, p):
    shared = {"faults": p["faults"], "retry": p["retry"]}
    return [
        ({"mechanism": name, "scale": spec}, {**shared, "autoscale": spec})
        for name, spec in p["mechanisms"]
    ]


def _summary(report: ResilienceSweepReport) -> List[str]:
    lines = ["combined vs single mechanisms (board-ms per deadline-met job):"]
    for row in report.headline()["combined_vs_single"]:
        costs = ", ".join(
            f"{name} {cost * 1e3:7.3f}" for name, cost in sorted(row["costs"].items())
        )
        verdict = "combined wins" if row["combined_wins"] else "combined does NOT win"
        lines.append(f"  {row['point']:>12s}: {costs}  ({verdict})")
    return lines


def run_sweep(
    config: Optional[FabConfig] = None,
    mechanisms: Sequence[Tuple[str, Optional[str]]] = DEFAULT_MECHANISMS,
    arrivals: Sequence[Tuple[str, str]] = DEFAULT_ARRIVALS,
    devices: Sequence[int] = (8,),
    faults: str = DEFAULT_FAULTS,
    retry: str = DEFAULT_RETRY,
    duration_s: float = 1.0,
    target_load: float = DEFAULT_TARGET_LOAD,
    seed: int = 0,
    max_batch: int = 8,
    workers: Optional[int] = None,
) -> ResilienceSweepReport:
    """Simulate the full resilience x autoscale grid.

    The fault schedule is seeded per board, independent of pool
    membership, so cost-per-goodput deltas are pure membership-policy
    effects.  DES-only, like the fault and autoscale sweeps.
    """
    return SWEEP.simulate(locals())


SWEEP = Sweep(
    report=ResilienceSweepReport,
    point=AutoscalePoint,
    outcome=ResilienceOutcome,
    axes=("devices", "arrivals"),
    scenario=interactive_scenario,
    run_sweep=run_sweep,
    registry=dict(duration_s=0.6),
    arms=_arms,
    checks=(
        spec_check("faults", make_fault_process),
        spec_check("retry", make_retry_policy),
        spec_check("mechanisms", make_scale_policy),
        distinct("mechanisms"),
        positive("target_load"),
    ),
    stamp=lambda p: {
        "target_load": p["target_load"],
        "faults": p["faults"],
        "retry": p["retry"],
        "arrivals": ",".join(label for label, _ in p["arrivals"]),
    },
    blurb="Sweep membership mechanisms under faulty diurnal load; combined "
    "spares + elastic vs either alone.",
    description="sweep pool-membership mechanisms (static / elastic / spares / "
    "combined) under faulty diurnal SLO serving; report cost per goodput "
    "through the unified membership ledger",
    options=(
        "--devices",
        option(
            "--arrivals",
            "arrival process specs to sweep (NAME[:key=value,...]; default: "
            "diurnal wave)",
            convert=labelled,
            metavar="SPEC",
            default=[spec for _, spec in DEFAULT_ARRIVALS],
        ),
        option(
            "--faults",
            f"fault process shared by every mechanism (default {DEFAULT_FAULTS})",
            metavar="SPEC",
        ),
        option(
            "--retry",
            f"retry policy shared by every mechanism (default {DEFAULT_RETRY})",
            metavar="SPEC",
        ),
        option(
            "--duration",
            "arrival horizon per grid point (seconds; long enough for several "
            "faults and a full diurnal trough)",
        ),
        option(
            "--load",
            "mean offered load fraction of pool capacity (default "
            f"{DEFAULT_TARGET_LOAD:g})",
        ),
        "--seed",
        "--max-batch",
        "--workers",
        "--json",
    ),
    summary=_summary,
)
run = SWEEP.experiment
main = SWEEP.cli  # repro resilience-autoscale-sweep

if __name__ == "__main__":
    sys.exit(main())
