"""Shared infrastructure for the experiment drivers.

Every driver exposes ``run() -> ExperimentResult`` producing the rows of
one paper table/figure (model-measured values side by side with the
paper-reported ones) and a ``main()``: table drivers print ``run()``,
serving sweeps run their CLI.  The benchmark harness in ``benchmarks/``
wraps the same ``run()`` functions.

The serving sweeps are each one declarative :class:`Sweep`: grid axes,
the arms run on every grid point's scenario, an outcome dataclass
projected from the :class:`~repro.runtime.serving.ServingReport`, and
a :class:`SweepReport` subclass with the sweep's headline.  The harness
below owns everything they share: input checks, the process fan-out,
provenance, the JSON artifact, the result table and the CLI.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import multiprocessing
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.params import FabConfig
from ..obs import MetricsRecorder, provenance


def fan_out(worker: Callable, tasks: Sequence, workers=None) -> List:
    """Map ``worker`` over ``tasks``, optionally on a process pool.

    The fan-out behind every :class:`Sweep`.  ``workers=None`` sizes
    the pool to the machine, capped at the task count; ``workers=1``
    runs inline.  Results are identical either way — ``worker`` and
    every task must be picklable and deterministic.  Fork only where it
    is the safe platform default (Linux); macOS forking a threaded
    (numpy/BLAS) process is the documented crash case, and spawn works
    everywhere since the inputs all travel by value.
    """
    if workers is None:
        workers = min(os.cpu_count() or 1, len(tasks))
    if workers <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    if sys.platform.startswith("linux"):
        ctx = multiprocessing.get_context("fork")
    else:
        ctx = multiprocessing.get_context()
    with ctx.Pool(workers) as pool:
        return pool.map(worker, tasks, chunksize=1)


@dataclass
class ExperimentRow:
    """One row of a reproduced table/figure."""

    label: str
    values: Dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]


@dataclass
class ExperimentResult:
    """A reproduced artifact: id, headline, rows."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[ExperimentRow]
    notes: str = ""

    def row(self, label: str) -> ExperimentRow:
        """Find a row by label."""
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(f"no row labelled {label!r} in {self.experiment_id}")

    def format(self) -> str:
        """Render as a fixed-width table."""
        headers = ["row"] + self.columns
        table_rows = []
        for r in self.rows:
            cells = [r.label]
            for col in self.columns:
                value = r.values.get(col, "")
                if isinstance(value, float):
                    cells.append(_format_number(value))
                else:
                    cells.append(str(value))
            table_rows.append(cells)
        widths = [
            max(len(h), *(len(row[i]) for row in table_rows)) if table_rows else len(h)
            for i, h in enumerate(headers)
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in table_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _format_number(value: float) -> str:
    if value == 0:
        return "0"
    if value != value:  # NaN
        return "-"
    magnitude = abs(value)
    if magnitude >= 1000 or magnitude < 0.001:
        return f"{value:.3g}"
    if magnitude >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


def print_result(result: ExperimentResult) -> None:
    """Print a formatted experiment result."""
    print(result.format())
    print()


# ----------------------------------------------------------------------
# Serving sweeps
# ----------------------------------------------------------------------


class SweepInputError(ValueError):
    """A ``run_sweep`` keyword failed its check; the CLI reports the
    same message against the keyword's flag."""

    def __init__(self, param: str, message: str):
        super().__init__(f"{param}: {message}")
        self.param = param
        self.message = message


#: One input check over the resolved ``run_sweep`` keywords ``p``.
Check = Callable[[Dict[str, Any]], None]


def check(param: str, ok: Callable[[Any], bool], message: str) -> Check:
    """Require ``ok`` of ``param``'s value (of every item of a sequence)."""

    def run(p):
        value = p[param]
        items = value if isinstance(value, (list, tuple)) else (value,)
        if not all(ok(item) for item in items):
            raise SweepInputError(param, message)

    return run


def positive(param: str) -> Check:
    return check(param, lambda value: value > 0, "must be positive")


def at_least_one(param: str) -> Check:
    return check(param, lambda value: value >= 1, "must be >= 1")


def spec_check(param: str, parse: Callable[[str], Any]) -> Check:
    """Require every spec in ``param`` — one spec, ``None``, or a
    sequence of specs or ``(label, spec)`` pairs — to parse.  A
    ``SpecError`` or a missing ``replay:`` file fails the check."""

    def run(p):
        value = p[param]
        for item in [value] if isinstance(value, str) else value or ():
            spec = item[1] if isinstance(item, (list, tuple)) else item
            try:
                if spec:
                    parse(spec)
            except (ValueError, OSError) as exc:
                raise SweepInputError(param, str(exc)) from exc

    return run


def distinct(param: str) -> Check:
    """Require at least one arm in ``param`` and no arm name twice (a
    pair's label, else a spec's ``NAME``: the by-point key)."""

    def run(p):
        names = [_arm_name(item) for item in p[param]]
        if not names or len(set(names)) != len(names):
            raise SweepInputError(param, f"need distinct names, got {names!r}")

    return run


def _arm_name(item) -> str:
    return item[0] if isinstance(item, (list, tuple)) else item.partition(":")[0]


def check_stripe(p) -> None:
    """Gang stripes pair boards up and must fit the smallest pool."""
    stripe = p["training_stripe"]
    if stripe < 1 or (stripe > 1 and stripe % 2):
        raise SweepInputError("training_stripe", "must be 1 or even (boards pair up)")
    if stripe > min(p["devices"]):
        raise SweepInputError("training_stripe", "cannot exceed the smallest pool")


def _parse_arrivals(spec: str) -> None:
    # Imported here: repro.runtime.serving imports this module.
    from ..runtime.arrivals import make_process

    make_process(spec, rate_per_s=1.0)


#: Checks every sweep runs before its own.
COMMON_CHECKS: Tuple[Check, ...] = (
    positive("duration_s"),
    at_least_one("devices"),
    at_least_one("max_batch"),
    spec_check("arrivals", _parse_arrivals),
)


def pareto_frontier(outcomes: Sequence, minimize: str, maximize: str) -> List:
    """Outcomes no other one matches on both attributes while beating
    on one (lowest ``minimize``, highest ``maximize``), in increasing
    ``minimize`` with ties toward higher ``maximize``."""
    low, high = attrgetter(minimize), attrgetter(maximize)

    def dominates(a, b) -> bool:
        no_worse = low(a) <= low(b) and high(a) >= high(b)
        return no_worse and (low(a) < low(b) or high(a) > high(b))

    frontier = [c for c in outcomes if not any(dominates(o, c) for o in outcomes)]
    return sorted(frontier, key=lambda o: (low(o), -high(o)))


@dataclass
class SweepReport:
    """A sweep's outcomes plus the inputs its JSON artifact records.

    Subclasses add header fields (filled from the same-named
    ``run_sweep`` keywords) and set the class attributes below.
    """

    outcomes: List[Any]
    #: Seed / config-digest / git-describe stamp, embedded in the JSON
    #: artifact so every sweep file is traceable to its inputs.
    provenance: Optional[Dict[str, object]]

    #: Result-table id (the sweep's name) and title.
    experiment_id = ""
    title = ""
    #: Result-table columns: name -> outcome attribute path or getter.
    columns = {}
    #: Outcome field naming the arm (``None``: one outcome per point).
    arm = None

    def arm_name(self, outcome) -> str:
        """The outcome's arm (a spec's ``NAME`` part), ``""`` if none."""
        return getattr(outcome, self.arm).partition(":")[0] if self.arm else ""

    def by_point(self) -> Dict[str, Dict[str, Any]]:
        """``{point label: {arm name: outcome}}`` over the whole grid."""
        table: Dict[str, Dict[str, Any]] = {}
        for o in self.outcomes:
            table.setdefault(o.point.label(), {})[self.arm_name(o)] = o
        return table

    def headline(self) -> Dict[str, object]:
        """The per-point comparisons the sweep's tests pin."""
        return {}

    def sections(self) -> Dict[str, object]:
        """Artifact sections between the header and the outcomes."""
        return {"headline": self.headline()}

    def notes(self) -> str:
        return ""

    def to_dict(self) -> Dict[str, object]:
        # Every field but the outcomes, written as given.
        header = {f.name: getattr(self, f.name) for f in fields(self)[1:]}
        return {
            **header,
            "grid_points": len(self.by_point()),
            **self.sections(),
            "outcomes": [asdict(o) for o in self.outcomes],
        }

    def save_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    def to_experiment_result(self) -> ExperimentResult:
        getters = [g if callable(g) else attrgetter(g) for g in self.columns.values()]
        rows = []
        for o in self.outcomes:
            label = o.point.label() + (f"/{self.arm_name(o)}" if self.arm else "")
            values = [get(o) for get in getters]
            rows.append(ExperimentRow(label, dict(zip(self.columns, values))))
        return ExperimentResult(
            self.experiment_id, self.title, list(self.columns), rows, self.notes()
        )


#: Outcome fields that rename a ServingReport attribute or derive from it.
REPORT_FIELDS: Dict[str, Callable[[Any], Any]] = {
    "jobs": attrgetter("jobs_done"),
    "rejected": attrgetter("rejected_jobs"),
    "deferred": attrgetter("deferred_jobs"),
    "shed": attrgetter("shed_jobs"),
    "good_jobs": lambda report: int(round(report.goodput_jps * report.makespan_s)),
}


def _simulate(task: Tuple) -> Any:
    """Worker body: one (grid point, arm) pair through the simulator.

    Top-level (picklable) so a multiprocessing pool can run it; all
    inputs travel by value, so fork and spawn give identical results.
    Each outcome field comes from the arm, else the sweep's ``derive``,
    else the same-named report attribute (see :data:`REPORT_FIELDS`).
    """
    # Imported here: repro.runtime.serving imports this module.
    from ..runtime.serving import ServingSimulator

    outcome, derive, point, arm, scenario, simulator_kwargs, run_kwargs, p = task
    simulator = ServingSimulator(
        p["config"],
        num_devices=point.devices,
        max_batch=p["max_batch"],
        **simulator_kwargs,
    )
    metrics = None
    if p.get("point_metrics"):
        meta = {"point": point.label(), **arm}
        metrics = MetricsRecorder(window_s=scenario.duration_s / 20, meta=meta)
    report = simulator.run(
        scenario,
        seed=p["seed"],
        recorder=metrics,
        engine=p.get("engine", "des"),
        **run_kwargs,
    )
    values = {
        "point": point,
        "metrics": metrics.summary() if metrics is not None else None,
        **arm,
        **(derive(point, report, p) if derive else {}),
    }
    for f in fields(outcome):
        if f.name not in values:
            values[f.name] = REPORT_FIELDS.get(f.name, attrgetter(f.name))(report)
    return outcome(**{f.name: values[f.name] for f in fields(outcome)})


class Option(NamedTuple):
    """A sweep-command flag: argparse keywords beyond those implied by
    its ``run_sweep`` default, and a ``convert`` to the keyword's value."""

    flag: str
    kwargs: Dict[str, Any]
    convert: Optional[Callable[[Any], Any]] = None


def option(flag: str, help: Optional[str] = None, convert=None, **kwargs) -> Option:
    return Option(flag, dict(kwargs, help=help), convert)


#: Flags whose ``run_sweep`` keyword is not the flag's own name
#: (``None``: the JSON artifact path).
FLAG_PARAMS = {
    "--cache-fracs": "cache_fractions",
    "--duration": "duration_s",
    "--slo-ms": "slo_p99_ms",
    "--stripe": "training_stripe",
    "--mttr": "mttr_s",
    "--load": "target_load",
    "--json": None,
}


def _param(flag: str) -> Optional[str]:
    return FLAG_PARAMS.get(flag, flag[2:].replace("-", "_"))


def _implied(default) -> Dict[str, Any]:
    """argparse keywords a ``run_sweep`` default implies: a switch for
    a bool, ``nargs="+"`` for a sequence, the type of a number."""
    if isinstance(default, bool):
        return {"action": "store_true"}
    if isinstance(default, (list, tuple)):
        return {"nargs": "+", **_implied(default[0])}
    if isinstance(default, (int, float)):
        return {"type": type(default)}
    return {}


def _shared_options() -> Dict[str, Option]:
    """Flags several sweep commands share, named by flag in
    :attr:`Sweep.options`."""
    # Imported here: repro.runtime.serving imports this module.
    from ..runtime.serving import ENGINES

    return {
        opt.flag: opt
        for opt in (
            option("--devices", "pool sizes to sweep"),
            option("--duration", "arrival horizon per grid point (seconds)"),
            option("--seed"),
            option("--max-batch"),
            option(
                "--stripe",
                "stripe the batch tier across K boards (gang scheduling; default 1)",
                metavar="K",
            ),
            option(
                "--workers",
                "simulation processes (default: one per core, capped at the grid; "
                "1 = inline)",
                type=int,
            ),
            option(
                "--engine",
                "event core per grid point (default: des)",
                choices=list(ENGINES),
            ),
            option(
                "--arrivals",
                "arrival process for every stream (NAME[:key=value,...] or "
                "replay:PATH; default: Poisson)",
                metavar="SPEC",
            ),
            option("--json", "JSON artifact path ('' to skip)", metavar="PATH"),
            option(
                "--point-metrics",
                "attach a windowed-metrics summary to every grid point in the "
                "JSON artifact",
            ),
        )
    }


def labelled(specs: Sequence[str]) -> List[Tuple[str, str]]:
    """CLI arrival specs as ``(NAME, spec)`` grid-axis pairs."""
    return [(spec.partition(":")[0], spec) for spec in specs]


def _flatten(values: Sequence) -> List:
    """A grid coordinate with each ``(label, spec)`` pair spread into
    two point fields."""
    flat: List = []
    for value in values:
        flat.extend(value if isinstance(value, (list, tuple)) else (value,))
    return flat


@dataclass(frozen=True)
class Sweep:
    """A serving sweep, declared.

    The grid is the product of the ``axes`` keywords of ``run_sweep``;
    each grid point builds one scenario and runs every arm on it, so
    per-point comparisons between arms are exact.  Hooks see ``p``: the
    ``run_sweep`` keywords plus whatever ``prepare`` adds.
    """

    #: Report class; its ``experiment_id`` names the sweep.
    report: type
    #: Frozen dataclass built from one grid coordinate.
    point: type
    #: Dataclass of one (point, arm) result.
    outcome: type
    #: ``run_sweep`` keywords whose product is the grid, in point order.
    axes: Tuple[str, ...]
    #: ``(point, p) -> Scenario`` shared by every arm at the point.
    scenario: Callable
    #: The module's ``run_sweep``: CLI defaults and entry point.
    run_sweep: Callable
    #: ``run_sweep`` keywords of the reduced grid :meth:`experiment` runs.
    registry: Dict[str, Any]
    #: ``(point, p) -> [(outcome fields, ServingSimulator.run kwargs)]``.
    arms: Callable = lambda point, p: [({}, {})]
    #: ``(point, p) -> extra ServingSimulator keywords``.
    simulator: Callable = lambda point, p: {}
    #: ``(point, report, p) -> derived outcome fields``; must pickle.
    derive: Optional[Callable] = None
    #: ``p -> None``: add derived inputs (an SLO, a price signal).
    prepare: Callable = lambda p: None
    #: Checks run after :data:`COMMON_CHECKS`.
    checks: Tuple[Check, ...] = ()
    #: ``p -> extra provenance keywords`` for the artifact stamp.
    stamp: Callable = lambda p: {}
    #: ``repro list`` line, ``--help`` description, and flags in help
    #: order (a string names a shared flag).
    blurb: str = ""
    description: str = ""
    options: Tuple[Any, ...] = ()
    #: ``report -> lines`` printed after the result table.
    summary: Callable = lambda report: []

    @property
    def name(self) -> str:
        return self.report.experiment_id

    @property
    def command(self) -> str:
        return self.name.replace("_", "-")

    def simulate(self, params: Dict[str, Any]) -> SweepReport:
        """Check ``run_sweep``'s keywords, simulate the grid, report."""
        p = {k: tuple(v) if isinstance(v, list) else v for k, v in params.items()}
        workers = p.pop("workers")
        p["config"] = p["config"] or FabConfig()
        for axis in self.axes:
            if not p[axis]:
                raise SweepInputError(axis, "empty sweep grid")
        for run_check in COMMON_CHECKS + self.checks:
            run_check(p)
        self.prepare(p)
        tasks = []
        for values in itertools.product(*(p[axis] for axis in self.axes)):
            point = self.point(*_flatten(values))
            scenario = self.scenario(point, p)
            simulator = self.simulator(point, p)
            for arm, run_kwargs in self.arms(point, p):
                shared = (scenario, simulator, run_kwargs, p)
                tasks.append((self.outcome, self.derive, point, arm) + shared)
        # The report's own fields, past outcomes and provenance.
        header = {f.name: p[f.name] for f in fields(self.report)[2:]}
        return self.report(
            outcomes=fan_out(_simulate, tasks, workers=workers),
            provenance=provenance(seed=p["seed"], config=p["config"], **self.stamp(p)),
            **header,
        )

    def experiment(self) -> ExperimentResult:
        """Experiment-registry entry point: the reduced grid, inline."""
        return self.run_sweep(workers=1, **self.registry).to_experiment_result()

    def cli(self, argv: Optional[Sequence[str]] = None) -> int:
        """``repro <command>``: flags -> ``run_sweep`` -> result table,
        summary lines, JSON artifact.  Bad input exits with one
        ``parser.error`` line naming the flag."""
        parser = argparse.ArgumentParser(
            prog=f"repro {self.command}", description=self.description
        )
        shared = _shared_options()
        options = [shared[o] if isinstance(o, str) else o for o in self.options]
        defaults = inspect.signature(self.run_sweep).parameters
        for opt in options:
            param = _param(opt.flag)
            default = defaults[param].default if param else f"{self.name}.json"
            kwargs = {"default": default, **opt.kwargs}
            parser.add_argument(opt.flag, **{**_implied(kwargs["default"]), **kwargs})
        args = parser.parse_args(argv)
        kwargs = {}
        for opt in options:
            value = getattr(args, opt.flag[2:].replace("-", "_"))
            if _param(opt.flag):
                kwargs[_param(opt.flag)] = opt.convert(value) if opt.convert else value
        try:
            report = self.run_sweep(**kwargs)
        except SweepInputError as exc:
            flags = {_param(opt.flag): opt.flag for opt in options}
            parser.error(f"{flags.get(exc.param, exc.param)}: {exc.message}")
        print_result(report.to_experiment_result())
        for line in self.summary(report):
            print(line)
        if args.json:
            report.save_json(args.json)
            print(f"sweep written to {args.json}")
        return 0
