"""Autoscale sweep: scale policy x arrival pattern, cost per goodput.

The serving simulator grows voluntary pool elasticity through
:mod:`repro.runtime.autoscaler`; this driver quantifies what elastic
capacity buys — and what it costs.  Every arrival pattern runs every
scale policy on the *same* arrival sequence (the policy only decides
how many boards stay in service), so per-point comparisons are exact:

* ``static`` — the fixed pool: every board paid for over the whole
  makespan.  The provisioning baseline autoscaling must beat.
* ``reactive`` — threshold control on windowed utilization + backlog.
  Robust: it only sheds capacity it has *watched* go idle, so SLO
  attainment matches static on every pattern, at a smaller
  board-seconds bill.
* ``predictive`` — least-squares rate trend extrapolated ahead and
  sized via measured board-seconds-per-job.  Thriftiest on smooth
  diurnal waves (it drains capacity *into* the trough), but fragile
  to flash crowds: the quiet pre-spike window reads as "scale down",
  and the spike lands on a cold, shrunken pool.

The headline metric is **cost per goodput** —
:attr:`repro.runtime.serving.ServingReport.board_s_per_good_job`,
board-seconds paid per deadline-met job.  A static pool pays
``makespan x num_devices``; an elastic pool pays only for in-service
board-time, but scale-ups come back cold (switching-key reload over
PCIe), so elasticity is never free.  The acceptance invariant the CI
test pins: under diurnal load, autoscaling *strictly beats* static
provisioning on cost per goodput without giving up SLO attainment.

Jobs are interactive-only (``interactive_fraction=1``): a deferrable
batch tier would backfill every trough and hide the very idleness
autoscaling exists to harvest — fleet operators run elastic pools for
latency-bound serving, not for throughput tiers that tolerate queues.

CLI::

    python -m repro autoscale-sweep --duration 1.0 --json autoscale_sweep.json
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.params import FabConfig
from ..runtime.autoscaler import SCALE_POLICIES, make_scale_policy
from ..runtime.serving import build_slo_scenario
from .common import Sweep, SweepReport, distinct, labelled, option, positive, spec_check

#: Scale policies swept at every arrival pattern.  ``static`` is the
#: sentinel for ``autoscale=None`` (the fixed-pool baseline).
DEFAULT_POLICIES = (
    "static",
    "reactive:low=0.3,high=0.85,cooldown=0.02",
    "predictive:window=0.1,horizon=0.05,target=0.7,cooldown=0.02",
)

#: Arrival patterns: the smooth wave autoscaling is built for, the
#: bursty process that punishes slow cooldowns, and the step spike
#: that punishes prediction.
DEFAULT_ARRIVALS = (
    ("diurnal", "diurnal:amplitude=0.9"),
    ("mmpp", "mmpp:burst=3,duty=0.3"),
    ("flash", "flash:factor=6"),
)

#: Mean offered load; the diurnal wave swings the instantaneous rate
#: between ``(1 - amplitude)`` and ``(1 + amplitude)`` times this, so
#: 0.45 gives a saturated crest and a near-idle trough.
DEFAULT_TARGET_LOAD = 0.45


@dataclass(frozen=True)
class AutoscalePoint:
    """One arrival pattern over one pool size."""

    devices: int
    arrivals: str  # short label ("diurnal", "mmpp", "flash")
    arrival_spec: str  # full ``name:key=value`` spec

    def label(self) -> str:
        return f"d{self.devices}/{self.arrivals}"


@dataclass
class ScaleOutcome:
    """One scale policy's result on one grid point's arrival stream."""

    point: AutoscalePoint
    scale: str
    good_jobs: int
    goodput_jps: float
    jobs_done: int
    rejected: int
    shed: int
    shed_degraded: int
    slo_attainment: Optional[float]
    makespan_s: float
    #: Provisioned board-seconds actually paid (= makespan x devices
    #: for ``static``; only in-service time for elastic policies).
    board_seconds: float
    #: Board-seconds per deadline-met job — the sweep's cost metric.
    board_s_per_good_job: float
    resize_events: int
    scale_ups: int
    scale_downs: int

    @property
    def name(self) -> str:
        return self.scale.partition(":")[0]


def slo_cell(o) -> Optional[float]:
    """Result-table SLO attainment, rounded for display."""
    return round(o.slo_attainment, 4) if o.slo_attainment is not None else None


def cost_ms_cell(o) -> Optional[float]:
    """Result-table board-milliseconds per deadline-met job."""
    cost = o.board_s_per_good_job
    return round(cost * 1e3, 4) if math.isfinite(cost) else None


@dataclass
class AutoscaleSweepReport(SweepReport):
    """The full grid plus per-point savings and the diurnal verdict."""

    policies: Tuple[str, ...]
    duration_s: float
    target_load: float
    seed: int

    experiment_id = "autoscale_sweep"
    title = "Autoscale sweep: scale policy x arrival pattern"
    arm = "scale"
    columns = {
        "scale": "name",
        "devices": "point.devices",
        "arrivals": "point.arrivals",
        "good": "good_jobs",
        "done": "jobs_done",
        "shed": "shed",
        "slo": slo_cell,
        "board_s": lambda o: round(o.board_seconds, 4),
        "cost_ms": cost_ms_cell,
        "resizes": "resize_events",
    }

    def savings(self) -> List[Dict[str, object]]:
        """Per (point, elastic policy): board-seconds saved vs static
        and the cost-per-goodput ratio (< 1 means autoscaling wins)."""
        rows: List[Dict[str, object]] = []
        for label, per_policy in sorted(self.by_point().items()):
            static = per_policy.get("static")
            if static is None:
                continue
            base = static.board_s_per_good_job
            for name, outcome in sorted(per_policy.items()):
                if name == "static":
                    continue
                if base > 0 and math.isfinite(base):
                    ratio = outcome.board_s_per_good_job / base
                else:
                    ratio = math.inf
                slo = outcome.slo_attainment or 0.0
                slo_delta = slo - (static.slo_attainment or 0.0)
                rows.append(
                    {
                        "point": label,
                        "scale": name,
                        "board_s_saved": static.board_seconds - outcome.board_seconds,
                        "cost_ratio": ratio,
                        "slo_delta": slo_delta,
                        "resize_events": outcome.resize_events,
                    }
                )
        return rows

    def headline(self) -> Dict[str, object]:
        """``autoscale_vs_static``: per-point (label, static cost,
        best elastic policy, best elastic cost) rows — the comparison
        the acceptance criteria pin (some autoscaler strictly beats
        static on cost per goodput under diurnal load)."""
        rows = []
        for label, per_policy in sorted(self.by_point().items()):
            static = per_policy.get("static")
            elastic = [o for name, o in per_policy.items() if name != "static"]
            if static is None or not elastic:
                continue
            best = min(elastic, key=lambda o: o.board_s_per_good_job)
            static_cost = static.board_s_per_good_job
            rows.append((label, static_cost, best.name, best.board_s_per_good_job))
        return {"autoscale_vs_static": rows}

    def sections(self) -> Dict[str, object]:
        return {"headline": self.headline(), "savings": self.savings()}

    def notes(self) -> str:
        wins = [row for row in self.savings() if row["cost_ratio"] < 1]
        shown = [f"{w['point']}/{w['scale']}({w['cost_ratio']:.2f}x)" for w in wins]
        return (
            f"{len(self.by_point())} grid points x "
            f"{len(self.policies)} scale policies; "
            f"{len(wins)} elastic outcomes beat static on cost per goodput: "
            + ", ".join(shown[:4])
            + (" ..." if len(wins) > 4 else "")
        )


def interactive_scenario(point: AutoscalePoint, p):
    """Interactive-only SLO serving under the point's arrival pattern
    (see the module docstring for why a deferrable tier would hide the
    troughs)."""
    return build_slo_scenario(
        p["config"],
        num_devices=point.devices,
        duration_s=p["duration_s"],
        target_load=p["target_load"],
        interactive_fraction=1.0,
    ).with_arrivals(point.arrival_spec)


def _parse_scale(spec: str) -> None:
    if spec != "static":
        make_scale_policy(spec)


def _arms(point: AutoscalePoint, p):
    return [
        ({"scale": spec}, {"autoscale": None if spec == "static" else spec})
        for spec in p["policies"]
    ]


def _summary(report: AutoscaleSweepReport) -> List[str]:
    lines = ["autoscale vs static (board-ms per deadline-met job):"]
    for label, static, best, cost in report.headline()["autoscale_vs_static"]:
        verdict = "beats static" if cost < static else "does NOT beat static"
        lines.append(
            f"  {label:>12s}: static {static * 1e3:7.3f} -> "
            f"{best} {cost * 1e3:7.3f}  ({verdict})"
        )
    return lines


def run_sweep(
    config: Optional[FabConfig] = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    arrivals: Sequence[Tuple[str, str]] = DEFAULT_ARRIVALS,
    devices: Sequence[int] = (8,),
    duration_s: float = 1.0,
    target_load: float = DEFAULT_TARGET_LOAD,
    seed: int = 0,
    max_batch: int = 8,
    workers: Optional[int] = None,
) -> AutoscaleSweepReport:
    """Simulate the full autoscale grid; returns the sweep report.

    The scale policy decides only how many boards stay in service, so
    cost-per-goodput deltas are pure provisioning effects.
    Autoscaling is DES-only: no ``engine``.
    """
    return SWEEP.simulate(locals())


SWEEP = Sweep(
    report=AutoscaleSweepReport,
    point=AutoscalePoint,
    outcome=ScaleOutcome,
    axes=("devices", "arrivals"),
    scenario=interactive_scenario,
    run_sweep=run_sweep,
    # static + reactive under diurnal load
    registry=dict(
        policies=DEFAULT_POLICIES[:2], arrivals=DEFAULT_ARRIVALS[:1], duration_s=0.6
    ),
    arms=_arms,
    checks=(
        spec_check("policies", _parse_scale),
        distinct("policies"),
        positive("target_load"),
    ),
    stamp=lambda p: {
        "target_load": p["target_load"],
        "arrivals": ",".join(label for label, _ in p["arrivals"]),
    },
    blurb="Sweep scale policy x arrival pattern; cost per goodput vs the static pool.",
    description="sweep scale policy x arrival pattern on interactive SLO "
    "serving; report cost per goodput (board-seconds per deadline-met job) vs "
    "the static-pool baseline",
    options=(
        option(
            "--policies",
            "scale policy specs to sweep ('static' for the fixed pool, else "
            f"NAME[:key=value,...] with NAME in {'/'.join(SCALE_POLICIES)}; one "
            "per policy name)",
            metavar="SPEC",
        ),
        "--devices",
        option(
            "--arrivals",
            "arrival process specs to sweep (NAME[:key=value,...]; default: "
            "diurnal wave, MMPP bursts, flash crowd)",
            convert=labelled,
            metavar="SPEC",
            default=[spec for _, spec in DEFAULT_ARRIVALS],
        ),
        option(
            "--duration",
            "arrival horizon per grid point (seconds; long enough for a full "
            "diurnal trough)",
        ),
        option(
            "--load",
            "mean offered load fraction of pool capacity (the diurnal wave swings "
            f"around this; default {DEFAULT_TARGET_LOAD:g})",
        ),
        "--seed",
        "--max-batch",
        "--workers",
        "--json",
    ),
    summary=_summary,
)
run = SWEEP.experiment
main = SWEEP.cli  # repro autoscale-sweep

if __name__ == "__main__":
    sys.exit(main())
