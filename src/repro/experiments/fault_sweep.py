"""Fault sweep: MTBF x retry policy x pool size under bursty load.

The serving simulator injects board faults through
:mod:`repro.runtime.faults`; this driver quantifies what recovery
buys.  Every (pool size, MTBF) grid point runs all retry policies on
the *same* arrival sequence and the *same* per-board fault schedule
(fault draws are seeded per ``(run seed, board)``, independent of the
retry policy), so per-point comparisons are exact:

* ``none`` — shed every fault-killed job: the no-recovery baseline.
  Goodput collapses as MTBF approaches the batch service time.
* ``immediate`` — re-enqueue instantly up to a retry budget.  Recovers
  most of the lost work but re-offers it while the pool is still
  degraded.
* ``backoff`` — capped exponential backoff with seeded jitter.  The
  same retries, spread out: strictly more goodput than ``none`` at
  every fault rate (a CI-pinned invariant) and the best
  goodput-vs-wasted-work trade of the three.

The headline artifact is the **resilience frontier** — the
non-dominated (goodput, wasted service) outcomes across the grid —
plus per-point ``backoff`` vs ``none`` goodput rows.  Jobs here are
deadline-annotated (the two-tier SLO scenario under diurnal or MMPP
arrivals), so *goodput* counts completions that met their effective
deadline: work a retry saved but delivered too late does not inflate
the score.

CLI::

    python -m repro fault-sweep --duration 0.5 --json fault_sweep.json
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.params import FabConfig
from ..runtime.faults import make_retry_policy
from ..runtime.serving import (
    build_job_classes,
    build_slo_scenario,
    default_interactive_slo_ms,
)
from .common import (
    Sweep,
    SweepReport,
    check_stripe,
    distinct,
    option,
    pareto_frontier,
    positive,
    spec_check,
)

#: Default grid: 2 pools x 3 fault rates x 3 retry policies = 18 runs.
DEFAULT_RETRIES = ("none", "immediate:max=3", "backoff")
DEFAULT_DEVICES = (4, 8)
DEFAULT_MTBFS = (0.05, 0.2, 1.0)

#: Mean time to repair, fixed across the sweep so MTBF is the one
#: availability knob (availability = mtbf / (mtbf + mttr)).
DEFAULT_MTTR = 0.02

#: Arrival reshaping applied to every stream (the fault interaction
#: being studied is fault-during-burst, so default to bursty MMPP).
DEFAULT_ARRIVALS = "mmpp:burst=3.0,duty=0.3,dwell=0.1"

#: Interactive SLO as a multiple of the fault-free default (3x the
#: cold-start bound).  A fleet that retries through faults provisions
#: deadline headroom for the retry to land in; without it (scale 1)
#: retried jobs complete but miss their deadlines and *no-retry posts
#: more goodput than backoff* — a real effect worth demonstrating
#: (``--slo-scale 1``), but not the provisioning regime the sweep's
#: headline invariant speaks to.
DEFAULT_SLO_SCALE = 4.0


@dataclass(frozen=True)
class FaultPoint:
    """One pool size under one board fault rate."""

    devices: int
    mtbf_s: float

    def label(self) -> str:
        return f"d{self.devices}/mtbf{self.mtbf_s:g}"


@dataclass
class RetryOutcome:
    """One retry policy's result on one grid point's fault schedule."""

    point: FaultPoint
    retry: str
    #: Completions that met their effective deadline (the goodput
    #: count) and the same as a rate over the makespan.
    good_jobs: int
    goodput_jps: float
    throughput_jps: float
    jobs_done: int
    rejected: int
    shed: int
    shed_degraded: int
    degraded_jobs: int
    board_faults: int
    failures: int
    retries: int
    wasted_service_s: float
    slo_attainment: Optional[float]
    cost_price_units: float
    makespan_s: float


@dataclass
class FaultSweepReport(SweepReport):
    """The full grid plus per-point comparisons and the frontier."""

    retries: Tuple[str, ...]
    mttr_s: float
    duration_s: float
    seed: int
    arrivals: Optional[str]
    slo_scale: float = DEFAULT_SLO_SCALE

    experiment_id = "fault_sweep"
    title = "Fault sweep: MTBF x retry policy x pool size"
    arm = "retry"
    columns = {
        "retry": lambda o: o.retry.partition(":")[0],
        "devices": "point.devices",
        "mtbf_s": "point.mtbf_s",
        "good": "good_jobs",
        "done": "jobs_done",
        "faults": "board_faults",
        "failures": "failures",
        "retries": "retries",
        "shed": "shed",
        "shed_deg": "shed_degraded",
        "degraded": "degraded_jobs",
        "wasted_s": "wasted_service_s",
    }

    def resilience_frontier(self) -> List[RetryOutcome]:
        """Non-dominated outcomes: maximize goodput, minimize wasted
        service.

        The fault-tolerance trade in one curve: retries buy goodput by
        re-running killed work, and the price is board-seconds burned
        on batches that never finished.  The frontier is returned
        thriftiest-first.
        """
        return pareto_frontier(
            self.outcomes, minimize="wasted_service_s", maximize="goodput_jps"
        )

    def headline(self) -> Dict[str, object]:
        """``backoff_vs_none``: per-point (label, board faults, none
        goodput jobs, backoff goodput jobs) rows — the comparison the
        acceptance criteria pin (backoff strictly beats no-retry at
        every point where faults actually fired)."""
        rows = []
        for label, per_retry in sorted(self.by_point().items()):
            none = per_retry.get("none")
            backoff = per_retry.get("backoff")
            if none and backoff:
                row = (label, none.board_faults, none.good_jobs, backoff.good_jobs)
                rows.append(row)
        return {"backoff_vs_none": rows}

    def sections(self) -> Dict[str, object]:
        frontier = [
            {
                "point": o.point.label(),
                "retry": o.retry,
                "goodput_jps": o.goodput_jps,
                "good_jobs": o.good_jobs,
                "wasted_service_s": o.wasted_service_s,
                "failures": o.failures,
            }
            for o in self.resilience_frontier()
        ]
        return {"headline": self.headline(), "resilience_frontier": frontier}

    def notes(self) -> str:
        frontier = self.resilience_frontier()
        return (
            f"{len(self.by_point())} grid points x "
            f"{len(self.retries)} retry policies; resilience frontier: "
            + ", ".join(f"{o.point.label()}/{self.arm_name(o)}" for o in frontier[:4])
            + (" ..." if len(frontier) > 4 else "")
        )


def _prepare(p) -> None:
    """The interactive deadline, loosened by ``slo_scale``."""
    classes = build_job_classes(p["config"], training_stripe=p["training_stripe"])
    default_ms = default_interactive_slo_ms(classes["lr_inference"], p["config"])
    p["slo_ms"] = p["slo_scale"] * default_ms


def _scenario(point: FaultPoint, p):
    scenario = build_slo_scenario(
        p["config"],
        num_devices=point.devices,
        duration_s=p["duration_s"],
        target_load=p["target_load"],
        interactive_slo_ms=p["slo_ms"],
        training_stripe=p["training_stripe"],
    )
    return scenario.with_arrivals(p["arrivals"]) if p["arrivals"] else scenario


def _arms(point: FaultPoint, p):
    faults = f"poisson:mtbf={point.mtbf_s:g},mttr={p['mttr_s']:g}"
    return [
        ({"retry": spec}, {"faults": faults, "retry": spec}) for spec in p["retries"]
    ]


def _summary(report: FaultSweepReport) -> List[str]:
    lines = ["backoff vs none (goodput jobs at equal fault schedule):"]
    for label, faults, none_good, backoff_good in report.headline()["backoff_vs_none"]:
        lines.append(
            f"  {label:>14s} {faults:4d} faults: "
            f"none {none_good:5d} -> backoff {backoff_good:5d}"
        )
    lines.append("resilience frontier (wasted board-seconds, goodput/s):")
    for o in report.resilience_frontier():
        lines.append(
            f"  {o.point.label():>14s} {report.arm_name(o):>10s} "
            f"{o.wasted_service_s:8.3f}s {o.goodput_jps:8.1f}/s"
        )
    return lines


def run_sweep(
    config: Optional[FabConfig] = None,
    retries: Sequence[str] = DEFAULT_RETRIES,
    devices: Sequence[int] = DEFAULT_DEVICES,
    mtbfs: Sequence[float] = DEFAULT_MTBFS,
    mttr_s: float = DEFAULT_MTTR,
    duration_s: float = 0.5,
    target_load: float = 0.8,
    seed: int = 0,
    max_batch: int = 8,
    training_stripe: int = 1,
    slo_scale: float = DEFAULT_SLO_SCALE,
    arrivals: Optional[str] = DEFAULT_ARRIVALS,
    workers: Optional[int] = None,
) -> FaultSweepReport:
    """Simulate the full fault grid; returns the sweep report.

    Fault draws are keyed on ``(seed, board)`` only, so the retry
    policy cannot perturb *when* boards fail, just what happens to the
    jobs afterwards.  ``arrivals=None`` keeps each stream's own
    (Poisson) process.  Fault injection is DES-only: no ``engine``.
    """
    return SWEEP.simulate(locals())


SWEEP = Sweep(
    report=FaultSweepReport,
    point=FaultPoint,
    outcome=RetryOutcome,
    axes=("devices", "mtbfs"),
    scenario=_scenario,
    run_sweep=run_sweep,
    registry=dict(devices=(4,), mtbfs=(0.05, 0.5), duration_s=0.4),
    arms=_arms,
    prepare=_prepare,
    checks=(
        spec_check("retries", make_retry_policy),
        distinct("retries"),
        positive("mtbfs"),
        positive("mttr_s"),
        positive("target_load"),
        check_stripe,
        positive("slo_scale"),
    ),
    stamp=lambda p: {
        "mttr_s": p["mttr_s"],
        "slo_scale": p["slo_scale"],
        "arrivals": p["arrivals"] or "default",
    },
    blurb="Sweep board MTBF x retry policy; goodput/wasted-service resilience "
    "frontier.",
    description="sweep board MTBF x retry policy x pool size under fault "
    "injection; report per-point backoff-vs-none goodput and the resilience "
    "(goodput vs wasted-service) frontier",
    options=(
        option(
            "--retries",
            "retry policy specs to sweep (NAME[:key=value,...]; one per policy name)",
            metavar="SPEC",
        ),
        "--devices",
        option("--mtbfs", "per-board mean time between failures (seconds) to sweep"),
        option("--mttr", f"mean time to repair in seconds (default {DEFAULT_MTTR:g})"),
        "--duration",
        option("--load", "offered load fraction of pool capacity"),
        "--seed",
        "--max-batch",
        "--stripe",
        option(
            "--slo-scale",
            "interactive deadline as a multiple of the fault-free default - "
            "resilience headroom for retries to land in (default "
            f"{DEFAULT_SLO_SCALE:g}; at 1 retried jobs miss their deadlines and "
            "no-retry wins on goodput)",
        ),
        option(
            "--arrivals",
            "arrival process for every stream (NAME[:key=value,...], '' to keep "
            "each stream's own Poisson process; default: "
            f"{DEFAULT_ARRIVALS})",
            convert=lambda spec: spec or None,
            metavar="SPEC",
        ),
        "--workers",
        "--json",
    ),
    summary=_summary,
)
run = SWEEP.experiment
main = SWEEP.cli  # repro fault-sweep

if __name__ == "__main__":
    sys.exit(main())
