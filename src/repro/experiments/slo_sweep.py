"""SLO sweep: admission/scheduling policy x load x mix x pool size.

The serving simulator dispatches through a pluggable policy
(:mod:`repro.runtime.policies`); this driver quantifies what each
policy buys on a two-tier scenario — latency-sensitive inference with
per-job deadlines sharing the pool with deferrable batch work that may
run anywhere inside an execution window — under a diurnal price/carbon
signal (cf. the deferrable-workload scheduling literature, e.g.
pennsail/cr):

* ``fifo`` — the historical greedy order: no admission, no deferral.
* ``edf`` — earliest-deadline-first with admission control: at high
  load it sheds infeasible jobs instead of cascading lateness, so SLO
  attainment strictly improves over ``fifo``.
* ``deferrable-window`` — batch work yields to interactive traffic
  and runs in cheap slots of the price signal, cutting
  cost-under-price-signal with zero interactive SLO regressions.

Every (pool size, offered load, interactive fraction) grid point runs
all policies on the *same* arrival sequence and price signal, so the
per-point comparisons are exact.  The report carries the full grid,
per-point policy comparisons, and the cost/SLO Pareto frontier; the
JSON artifact is uploaded by CI and refreshed by the weekly scheduled
run.

CLI::

    python -m repro slo-sweep --duration 0.5 --json slo_sweep.json
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.params import FabConfig
from ..runtime.policies import POLICIES, PriceSignal
from ..runtime.serving import build_slo_scenario
from .common import (
    Sweep,
    SweepInputError,
    SweepReport,
    check,
    check_stripe,
    distinct,
    option,
    pareto_frontier,
    positive,
)

#: Default grid: 2 pools x 3 loads x 2 mixes, every policy = 36 runs.
DEFAULT_POLICIES = ("fifo", "edf", "deferrable-window")
DEFAULT_DEVICES = (4, 8)
DEFAULT_LOADS = (0.5, 0.9, 1.4)
DEFAULT_MIXES = (0.5, 0.8)

#: Price signal defaults: an expensive half-period, then a cheap one.
DEFAULT_PEAK = 2.0
DEFAULT_TROUGH = 0.5

#: Loads at or above this count as "high load" in headline checks.
HIGH_LOAD = 1.0


@dataclass(frozen=True)
class SloPoint:
    """One pool configuration under one offered load and tier mix."""

    devices: int
    load: float
    mix: float  # interactive fraction of the offered load

    def label(self) -> str:
        return f"d{self.devices}/l{self.load:g}/m{self.mix:g}"


@dataclass
class PolicyOutcome:
    """One policy's result on one grid point's arrival sequence."""

    point: SloPoint
    policy: str
    jobs_done: int
    rejected: int
    deferred: int
    slo_attainment: float
    interactive_slo: float
    interactive_p99_ms: float
    batch_slo: Optional[float]
    cost_price_units: float
    cost_per_job: float
    makespan_s: float
    #: Windowed-metrics roll-up (:meth:`repro.obs.MetricsRecorder.
    #: summary`) when the sweep ran with ``point_metrics=True``.
    metrics: Optional[Dict[str, object]] = None


@dataclass
class SloSweepReport(SweepReport):
    """The full grid plus per-point comparisons and the frontier."""

    policies: Tuple[str, ...]
    duration_s: float
    seed: int
    #: The diurnal price signal's ``{"peak", "trough"}`` levels.
    price: Dict[str, float]

    experiment_id = "slo_sweep"
    title = "SLO sweep: policy x load x mix x pool size"
    arm = "policy"
    columns = {
        "policy": "policy",
        "devices": "point.devices",
        "load": "point.load",
        "mix": "point.mix",
        "jobs": "jobs_done",
        "slo_pct": lambda o: 100 * o.slo_attainment,
        "int_slo_pct": lambda o: 100 * o.interactive_slo,
        "int_p99_ms": "interactive_p99_ms",
        "rejected": "rejected",
        "deferred": "deferred",
        "cost": lambda o: o.cost_price_units * 1e3,
    }

    def pareto_frontier(self) -> List[PolicyOutcome]:
        """Non-dominated outcomes: minimize price-units per served
        job, maximize SLO attainment.

        Per-job cost keeps points with different offered loads
        comparable; the frontier is returned cheapest-first.
        """
        return pareto_frontier(
            self.outcomes, minimize="cost_per_job", maximize="slo_attainment"
        )

    def headline(self) -> Dict[str, object]:
        """The two comparisons the acceptance criteria pin down.

        ``edf_vs_fifo_high_load`` lists (label, fifo, edf) overall SLO
        attainment at every high-load point; ``deferrable_vs_fifo``
        lists (label, fifo cost, deferrable cost, fifo interactive
        SLO, deferrable interactive SLO) at every point.
        """
        edf_rows = []
        deferrable_rows = []
        for label, per_policy in sorted(self.by_point().items()):
            fifo = per_policy.get("fifo")
            edf = per_policy.get("edf")
            deferrable = per_policy.get("deferrable-window")
            if fifo and edf and fifo.point.load >= HIGH_LOAD:
                edf_rows.append((label, fifo.slo_attainment, edf.slo_attainment))
            if fifo and deferrable:
                costs = (fifo.cost_price_units, deferrable.cost_price_units)
                slos = (fifo.interactive_slo, deferrable.interactive_slo)
                deferrable_rows.append((label, *costs, *slos))
        return {
            "edf_vs_fifo_high_load": edf_rows,
            "deferrable_vs_fifo": deferrable_rows,
        }

    def sections(self) -> Dict[str, object]:
        pareto = [
            {
                "point": o.point.label(),
                "policy": o.policy,
                "cost_price_units": o.cost_price_units,
                "cost_per_job": o.cost_per_job,
                "slo_attainment": o.slo_attainment,
            }
            for o in self.pareto_frontier()
        ]
        return {"headline": self.headline(), "pareto": pareto}

    def notes(self) -> str:
        frontier = self.pareto_frontier()
        return (
            f"{len(self.by_point())} grid points x "
            f"{len(self.policies)} policies; Pareto frontier: "
            + ", ".join(f"{o.point.label()}/{o.policy}" for o in frontier[:4])
            + (" ..." if len(frontier) > 4 else "")
        )


def _known_policies(p) -> None:
    unknown = [name for name in p["policies"] if name not in POLICIES]
    if unknown:
        message = f"unknown policies {unknown!r}; try: {sorted(POLICIES)}"
        raise SweepInputError("policies", message)


def _price_levels(p) -> None:
    if not 0 <= p["trough"] <= p["peak"]:
        raise SweepInputError("trough", "need 0 <= trough <= peak")


def _prepare(p) -> None:
    """Two price slots per half-horizon, so a batch window equal to
    the horizon always contains a cheap slot."""
    p["price"] = {"peak": p["peak"], "trough": p["trough"]}
    p["price_signal"] = PriceSignal.diurnal(
        peak=p["peak"], trough=p["trough"], slot_s=p["duration_s"] / 4.0
    )


def _scenario(point: SloPoint, p):
    scenario = build_slo_scenario(
        p["config"],
        num_devices=point.devices,
        duration_s=p["duration_s"],
        target_load=point.load,
        interactive_fraction=point.mix,
        training_stripe=p["training_stripe"],
    )
    return scenario.with_arrivals(p["arrivals"]) if p["arrivals"] else scenario


def _arms(point: SloPoint, p):
    price = p["price_signal"]
    return [
        ({"policy": name}, {"policy": name, "price": price}) for name in p["policies"]
    ]


def _derive(point: SloPoint, report, p) -> Dict[str, object]:
    """Per-tier SLO and tail, and price-units per served job."""
    interactive = None
    batch_slo = None
    for stats in report.per_workload:
        if stats.name == "lr_inference":
            interactive = stats
        else:
            batch_slo = stats.slo_attainment
    if interactive is not None:
        interactive_slo = interactive.slo_attainment or 0.0
        interactive_p99_ms = interactive.p99_ms
    else:
        # A pure-batch point (mix 0) has no interactive tier: its SLO
        # is vacuously attained and there is no tail to report.
        interactive_slo = 1.0
        interactive_p99_ms = 0.0
    if report.jobs_done:
        cost_per_job = report.cost_price_units / report.jobs_done
    else:
        cost_per_job = float("inf")
    return {
        "slo_attainment": report.slo_attainment or 0.0,
        "interactive_slo": interactive_slo,
        "interactive_p99_ms": interactive_p99_ms,
        "batch_slo": batch_slo,
        "cost_per_job": cost_per_job,
    }


def _summary(report: SloSweepReport) -> List[str]:
    lines = ["cost/SLO Pareto frontier (price-units/job, attainment):"]
    for o in report.pareto_frontier():
        lines.append(
            f"  {o.point.label():>16s} {o.policy:>18s} "
            f"{o.cost_per_job * 1e3:8.2f} {100 * o.slo_attainment:6.1f}%"
        )
    return lines


def run_sweep(
    config: Optional[FabConfig] = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    devices: Sequence[int] = DEFAULT_DEVICES,
    loads: Sequence[float] = DEFAULT_LOADS,
    mixes: Sequence[float] = DEFAULT_MIXES,
    duration_s: float = 0.5,
    seed: int = 0,
    max_batch: int = 8,
    training_stripe: int = 1,
    peak: float = DEFAULT_PEAK,
    trough: float = DEFAULT_TROUGH,
    workers: Optional[int] = None,
    point_metrics: bool = False,
    engine: str = "des",
    arrivals: Optional[str] = None,
) -> SloSweepReport:
    """Simulate the full policy grid; returns the sweep report.

    Every policy at one grid point sees the same arrival sequence and
    the same diurnal price signal.  ``workers``, ``point_metrics``,
    ``engine`` and ``arrivals`` act as in
    :func:`repro.experiments.serve_sweep.run_sweep`.
    """
    return SWEEP.simulate(locals())


SWEEP = Sweep(
    report=SloSweepReport,
    point=SloPoint,
    outcome=PolicyOutcome,
    axes=("devices", "loads", "mixes"),
    scenario=_scenario,
    run_sweep=run_sweep,
    registry=dict(devices=(4,), loads=(0.6, 1.4), mixes=(0.6,), duration_s=0.4),
    arms=_arms,
    derive=_derive,
    prepare=_prepare,
    checks=(
        _known_policies,
        distinct("policies"),
        positive("loads"),
        check("mixes", lambda m: 0 <= m <= 1, "must be in [0, 1]"),
        check_stripe,
        _price_levels,
    ),
    stamp=lambda p: {"engine": p["engine"]},
    blurb="Sweep policy x load x mix x pool size; cost/SLO Pareto frontier.",
    description="sweep policy x load x mix x pool size on the SLO-annotated "
    "two-tier scenario; report per-point comparisons and the cost/SLO Pareto "
    "frontier",
    options=(
        option("--policies", "policies to sweep", choices=list(DEFAULT_POLICIES)),
        "--devices",
        option("--loads", "offered loads (fraction of pool capacity)"),
        option("--mixes", "interactive fraction of the offered load"),
        "--duration",
        "--seed",
        "--max-batch",
        "--stripe",
        option("--peak", "price during expensive slots"),
        option("--trough", "price during cheap slots"),
        "--workers",
        "--engine",
        "--arrivals",
        "--json",
        "--point-metrics",
    ),
    summary=_summary,
)
run = SWEEP.experiment
main = SWEEP.cli  # repro slo-sweep

if __name__ == "__main__":
    sys.exit(main())
