"""Autoscaling sweep: the cost-optimal FAB serving configuration.

The ROADMAP's autoscaling scenario: sweep the serving-pool design
space — pool size x HBM key-cache size x tenant count x offered load —
and report the configuration that serves the paper's workload mix at
the lowest device cost while meeting a tail-latency SLO.  This is the
serving-level analogue of the paper's design-space exploration (dnum,
fftIter): the balanced point is found by measuring the whole grid, not
by sizing one axis in isolation.

Every grid point runs the deterministic multi-tenant simulator
(:mod:`repro.runtime.serving`) on a mixed inference/training/analytics
scenario whose arrival rates are scaled to the point's pool capacity
and offered load.  Points are independent, so the driver fans out over
a ``multiprocessing`` pool (``workers=1`` runs inline; results are
identical either way).  The sweep-scale fast paths (heap scheduler,
memoized lowering, heap-driven serving loop) are what make paper-scale
grids cheap enough to run in CI.

Cost model: boards are the scarce resource, so a configuration is
priced in **device-milliseconds per served job**
(``devices * makespan / jobs``).  A point is *feasible* when every
workload's p99 latency meets the SLO and the pool keeps up with the
offered load (all arrivals served without the backlog outliving the
arrival horizon by more than the SLO).  The cost-optimal configuration
is the cheapest feasible point; ties break toward fewer devices, then
a smaller cache.

CLI::

    python -m repro serve-sweep --duration 2.0 --json sweep.json
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, astuple, dataclass
from typing import Dict, List, Optional, Sequence

from ..core.hbm import HbmModel
from ..core.params import FabConfig
from ..runtime.serving import JobClass, Scenario, Stream, build_job_classes
from .common import Sweep, SweepReport, at_least_one, check, option, positive

#: Default grid: 3 pools x 2 caches x 2 tenant mixes x 4 loads = 48.
DEFAULT_DEVICES = (4, 8, 16)
DEFAULT_CACHE_FRACTIONS = (0.125, 0.25)
DEFAULT_TENANTS = (2, 8)
DEFAULT_LOADS = (0.3, 0.6, 0.9, 1.2)


@dataclass(frozen=True)
class SweepPoint:
    """One serving configuration under one offered load."""

    devices: int
    cache_fraction: float  # of HBM capacity, for switching keys
    tenants: int  # per stream
    load: float  # offered load / aggregate pool capacity

    def label(self) -> str:
        return "d{}/c{:g}/t{}/l{:g}".format(*astuple(self))


@dataclass
class SweepOutcome:
    """Simulated result of one grid point."""

    point: SweepPoint
    jobs: int
    makespan_s: float
    worst_p99_ms: float
    throughput_jps: float
    device_utilization: float
    key_hit_rate: float
    cost_device_ms_per_job: float
    feasible: bool
    #: Windowed-metrics roll-up (:meth:`repro.obs.MetricsRecorder.
    #: summary`) when the sweep ran with ``point_metrics=True``.
    metrics: Optional[Dict[str, object]] = None


@dataclass
class ServeSweepReport(SweepReport):
    """The full grid plus the cost-optimal configuration."""

    slo_p99_ms: float
    duration_s: float
    seed: int

    experiment_id = "serve_sweep"
    title = "autoscaling sweep: pool x cache x tenants x load"
    columns = {
        "devices": "point.devices",
        "cache_frac": "point.cache_fraction",
        "tenants": "point.tenants",
        "load": "point.load",
        "jobs": "jobs",
        "p99_ms": "worst_p99_ms",
        "util": "device_utilization",
        "hit_rate": "key_hit_rate",
        "cost_dev_ms": "cost_device_ms_per_job",
        "ok": lambda o: "yes" if o.feasible else "no",
    }

    @property
    def best(self) -> Optional[SweepOutcome]:
        """Cheapest feasible point (fewest devices, then smallest
        cache, break remaining ties)."""
        feasible = [o for o in self.outcomes if o.feasible]
        if not feasible:
            return None
        return min(feasible, key=lambda o: (o.cost_device_ms_per_job, astuple(o.point)))

    def sections(self) -> Dict[str, object]:
        best = self.best
        return {
            "feasible_points": sum(o.feasible for o in self.outcomes),
            "best": asdict(best) if best else None,
        }

    def notes(self) -> str:
        best = self.best
        if best is None:
            return f"no feasible point under the {self.slo_p99_ms:.0f} ms p99 SLO"
        return (
            f"cost-optimal: {best.point.label()} at "
            f"{best.cost_device_ms_per_job:.2f} device-ms/job, "
            f"p99 {best.worst_p99_ms:.1f} ms (SLO {self.slo_p99_ms:.0f} ms)"
        )


def default_slo_p99_ms(classes: Dict[str, JobClass], config: FabConfig) -> float:
    """SLO heuristic: 8x the heaviest class's single-job service time.

    Scale-free: holds across pool sizes and hardware configs, loose
    enough that moderate queueing passes, tight enough that an
    overloaded pool (load >= 1) fails.
    """
    slowest = max(jc.seconds(config) for jc in classes.values())
    return 8.0 * slowest * 1e3


def _prepare(p) -> None:
    p["classes"] = build_job_classes(p["config"])
    if p["slo_p99_ms"] is None:
        p["slo_p99_ms"] = default_slo_p99_ms(p["classes"], p["config"])


def _scenario(point: SweepPoint, p) -> Scenario:
    """The mixed workload scaled to one grid point's pool capacity."""
    share = point.load / len(p["classes"])
    streams = [
        Stream(
            job_class,
            rate_per_s=share * point.devices / job_class.seconds(p["config"]),
            num_tenants=point.tenants,
            tenant_prefix=f"{name}-t",
        )
        for name, job_class in sorted(p["classes"].items())
    ]
    scenario = Scenario(f"sweep[{point.label()}]", p["duration_s"], streams)
    return scenario.with_arrivals(p["arrivals"]) if p["arrivals"] else scenario


def _simulator(point: SweepPoint, p) -> Dict[str, int]:
    capacity = HbmModel(p["config"]).capacity_bytes
    return {"key_cache_bytes": max(int(capacity * point.cache_fraction), 1)}


def _derive(point: SweepPoint, report, p) -> Dict[str, object]:
    """Tail, device cost and feasibility of one grid point.

    Feasible: tails meet the SLO and the backlog drains — the last
    completion lands within one SLO of the arrival horizon.
    """
    jobs = report.jobs_done
    worst_p99 = max((w.p99_ms for w in report.per_workload), default=0.0)
    drains = report.makespan_s <= p["duration_s"] + p["slo_p99_ms"] / 1e3
    cost = point.devices * report.makespan_s * 1e3 / jobs if jobs else math.inf
    return {
        "worst_p99_ms": worst_p99,
        "cost_device_ms_per_job": cost,
        "feasible": jobs > 0 and worst_p99 <= p["slo_p99_ms"] and drains,
    }


def _summary(report: ServeSweepReport) -> List[str]:
    best = report.best
    if best is None:
        return ["no feasible configuration met the SLO"]
    line = (
        f"cost-optimal: {best.point.devices} devices, "
        f"{best.point.cache_fraction:g} HBM key cache, "
        f"{best.point.tenants} tenants/stream at load {best.point.load:g} -> "
        f"{best.cost_device_ms_per_job:.2f} device-ms/job, "
        f"p99 {best.worst_p99_ms:.1f} ms"
    )
    return [line]


def run_sweep(
    config: Optional[FabConfig] = None,
    devices: Sequence[int] = DEFAULT_DEVICES,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    tenants: Sequence[int] = DEFAULT_TENANTS,
    loads: Sequence[float] = DEFAULT_LOADS,
    duration_s: float = 1.0,
    seed: int = 0,
    max_batch: int = 8,
    slo_p99_ms: Optional[float] = None,
    workers: Optional[int] = None,
    point_metrics: bool = False,
    engine: str = "des",
    arrivals: Optional[str] = None,
) -> ServeSweepReport:
    """Simulate the full grid; returns the sweep report.

    ``workers=None`` sizes the process pool to the machine, ``1`` runs
    inline; the report is identical either way.  ``point_metrics``
    attaches a windowed-metrics summary to every outcome without
    changing the schedule; ``engine="fast"`` runs the vectorized
    engine; ``arrivals`` reshapes every stream (see
    :func:`repro.runtime.arrivals.make_process`).
    """
    return SWEEP.simulate(locals())


SWEEP = Sweep(
    report=ServeSweepReport,
    point=SweepPoint,
    outcome=SweepOutcome,
    axes=("devices", "cache_fractions", "tenants", "loads"),
    scenario=_scenario,
    run_sweep=run_sweep,
    registry=dict(duration_s=0.5),  # the default 48-point grid
    simulator=_simulator,
    derive=_derive,
    prepare=_prepare,
    checks=(
        check("cache_fractions", lambda c: 0 < c <= 1, "must be in (0, 1]"),
        at_least_one("tenants"),
        positive("loads"),
    ),
    stamp=lambda p: {"engine": p["engine"]},
    blurb="Sweep pool x cache x tenants x load for the cost-optimal configuration.",
    description="sweep pool x cache x tenants x load for the cost-optimal "
    "serving configuration",
    options=(
        "--devices",
        option("--cache-fracs", "key-cache sizes as fractions of HBM"),
        option("--tenants", "tenants per stream to sweep"),
        option("--loads", "offered loads (fraction of pool capacity)"),
        "--duration",
        "--seed",
        "--max-batch",
        option(
            "--slo-ms",
            "p99 SLO in ms (default: 8x the heaviest workload's service time)",
            type=float,
        ),
        "--workers",
        "--engine",
        "--arrivals",
        "--json",
        "--point-metrics",
    ),
    summary=_summary,
)
run = SWEEP.experiment
main = SWEEP.cli  # repro serve-sweep

if __name__ == "__main__":
    sys.exit(main())
