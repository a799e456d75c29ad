"""CLI for the runtime subsystem: ``trace``, ``serve``, ``timeline``,
``stripe-scale``.

``trace`` lowers a workload trace to a FAB program and prints its op
mix, key working set, and scheduled cost.  By default it uses the
paper-scale reference traces; ``--capture`` instead runs the
functional LR app at test-scale parameters under the tracing
evaluator, proving the capture path end to end.

``serve`` runs the multi-tenant serving simulator on a named scenario
and prints throughput + tail-latency tables per workload; ``--stripe
K`` additionally stripes the training workload across K boards per job
(the FAB-2 gang-scheduling mode), ``--policy`` selects the
admission/scheduling policy (``fifo``, ``edf``,
``deferrable-window``), and ``--price diurnal`` turns on the square-
wave price/carbon signal the ``slo_mixed`` scenario's deferrable tier
schedules around.  ``--engine fast`` swaps in the vectorized event
core (~10x the DES event rate at fleet scale, parity-tested) and
``--arrivals SPEC`` reshapes every stream's arrival process (diurnal,
MMPP bursts, flash crowds, JSONL trace replay).

``timeline`` renders a ``serve --metrics`` artifact as a terminal
summary.

``stripe-scale`` sweeps boards x batch x board-assignment policy for
one trace striped across the FAB-2 pool and reconciles the
trace-driven speedup against the analytic ``MultiFpgaSystem`` model.

The five serving sweeps — ``serve-sweep``, ``slo-sweep``,
``fault-sweep``, ``autoscale-sweep`` and
``resilience-autoscale-sweep`` — are not here: each is a declarative
:class:`repro.experiments.common.Sweep`, whose ``cli`` builds the
command from the sweep module's ``run_sweep`` (see
:data:`repro.experiments.SWEEPS`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from typing import List, Optional

from ..core.params import FabConfig
from ..experiments.common import print_result
from ..obs import (MetricsRecorder, TimelineRecorder, compose,
                   provenance, render_metrics)
from .arrivals import ARRIVAL_PROCESSES
from .autoscaler import make_scale_policy
from .capture import capture
from .faults import (FAULT_PROCESSES, RETRY_POLICIES, make_fault_process,
                     make_retry_policy)
from .lowering import cost_trace, lower_trace
from .optrace import OpTrace
from .policies import POLICIES, PriceSignal
from .reference import REFERENCE_TRACES, build_reference_trace
from .serving import (ENGINES, ServingSimulator, build_scenarios,
                      build_slo_scenario)


def _capture_lr_trace() -> OpTrace:
    """Capture a real (tiny-N) encrypted LR iteration."""
    import numpy as np

    from ..apps.lr.data import Dataset
    from ..apps.lr.encrypted import EncryptedLrTrainer
    from ..fhe import CkksParams, CkksScheme

    rng = np.random.default_rng(0)
    scheme = CkksScheme(CkksParams(ring_degree=64, num_limbs=8,
                                   scale_bits=30))
    features = rng.random(size=(4, 3))
    labels = (rng.random(4) > 0.5).astype(float)
    dataset = Dataset(features, labels)
    with capture(scheme, "lr_iteration_captured") as trace:
        trainer = EncryptedLrTrainer(scheme)
        state = trainer.init_state(dataset.num_features)
        trainer.iteration(state, dataset)
    return trace


def run_trace(argv: List[str]) -> int:
    """Entry point for ``python -m repro trace``."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="lower a workload trace to a FAB program and cost it")
    parser.add_argument("workload", nargs="?", default="lr_iteration",
                        choices=sorted(REFERENCE_TRACES) + ["captured_lr"],
                        help="reference trace (or captured_lr to capture "
                             "a functional tiny-N LR iteration)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also dump the trace IR as JSON")
    parser.add_argument("--timeline", metavar="PATH", default=None,
                        help="write the scheduled program as a "
                             "Perfetto-loadable Chrome trace")
    parser.add_argument("--no-prefetch", action="store_true",
                        help="schedule without key prefetching")
    args = parser.parse_args(argv)

    config = FabConfig()
    if args.workload == "captured_lr":
        trace = _capture_lr_trace()
    else:
        trace = build_reference_trace(args.workload, config)
    prefetch = not args.no_prefetch
    cost = cost_trace(trace, config, prefetch=prefetch)
    schedule = lower_trace(trace, config).compile(prefetch).schedule()

    print(trace.summary())
    print(f"lowered: {len(schedule.tasks)} tasks, "
          f"{cost.report.num_ops} ops")
    print(f"cycles: {cost.cycles:,} scheduled "
          f"({cost.serial_cycles:,} serial) = {cost.seconds * 1e3:.3f} ms "
          f"at {config.clock_hz / 1e6:.0f} MHz")
    print(f"utilization: fu={100 * cost.report.fu_utilization:.0f}% "
          f"hbm={100 * cost.report.hbm_utilization:.0f}%")
    print(f"switching keys: {cost.keys.num_keys} "
          f"({cost.keys.total_bytes / 1e6:.1f} MB)")
    if args.json:
        trace.save(args.json)
        print(f"trace written to {args.json}")
    if args.timeline:
        recorder = TimelineRecorder(
            meta=provenance(config=config, workload=args.workload))
        schedule.record_timeline(
            recorder, seconds_per_cycle=config.cycles_to_seconds(1),
            group=f"{trace.name} schedule")
        recorder.save(args.timeline)
        print(f"timeline written to {args.timeline} "
              f"(open at ui.perfetto.dev)")
    return 0


def run_serve(argv: List[str]) -> int:
    """Entry point for ``python -m repro serve``."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="simulate multi-tenant serving on a FAB pool")
    parser.add_argument("--scenario", default="mixed",
                        help="scenario name or 'all' (default: mixed)")
    parser.add_argument("--devices", type=int, default=8)
    parser.add_argument("--duration", type=float, default=2.0,
                        help="arrival horizon in seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--load", type=float, default=0.6,
                        help="offered load fraction of pool capacity")
    parser.add_argument("--stripe", type=int, default=1, metavar="K",
                        help="stripe each training job across K boards "
                             "(FAB-2 gang scheduling; default 1)")
    parser.add_argument("--policy", default="fifo",
                        choices=sorted(POLICIES),
                        help="admission/scheduling policy (default: "
                             "fifo, the historical order)")
    parser.add_argument("--engine", default="des", choices=list(ENGINES),
                        help="event core: the exact DES or the "
                             "vectorized fast engine (~10x at fleet "
                             "scale, parity-tested; default: des)")
    parser.add_argument("--arrivals", default=None, metavar="SPEC",
                        help="arrival process for every stream: "
                             f"{', '.join(ARRIVAL_PROCESSES)} as "
                             "NAME[:key=value,...] or replay:PATH "
                             "(default: the scenario's own processes "
                             "- Poisson)")
    parser.add_argument("--price", default="flat",
                        choices=["flat", "diurnal"],
                        help="price/carbon signal: flat unit price or "
                             "a square wave with four slots per "
                             "arrival horizon (default: flat)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject board faults: "
                             f"{', '.join(FAULT_PROCESSES)} as "
                             "NAME[:key=value,...] or trace:PATH, e.g. "
                             "poisson:mtbf=2,mttr=0.2 (DES engine "
                             "only; default: no faults)")
    parser.add_argument("--retry", default=None, metavar="SPEC",
                        help="recovery for fault-killed jobs: "
                             f"{', '.join(RETRY_POLICIES)} as "
                             "NAME[:key=value,...], e.g. "
                             "backoff:base=0.01,max=6 (needs --faults; "
                             "default: none - shed killed jobs)")
    parser.add_argument("--autoscale", default=None, metavar="SPEC",
                        help="elastic pool autoscaling: "
                             "reactive:low=0.3,high=0.85,cooldown=0.05, "
                             "predictive:window=0.1,horizon=0.05,"
                             "target=0.7, spare:n=1, or a composed "
                             "predictive:...+spare:n=1 (--engine des "
                             "only; combines with --faults through the "
                             "membership ledger; default: fixed pool)")
    parser.add_argument("--timeline", metavar="PATH", default=None,
                        help="write a Perfetto-loadable Chrome trace "
                             "of the run (single scenario only)")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write windowed time-series metrics JSON "
                             "(single scenario only; render with "
                             "'repro timeline PATH')")
    parser.add_argument("--metrics-window", type=float, default=None,
                        metavar="S",
                        help="metrics window width in seconds "
                             "(default: duration / 40)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the serving report(s) as "
                             "JSON with provenance")
    args = parser.parse_args(argv)
    if args.devices < 1:
        parser.error("--devices must be >= 1")
    if args.duration <= 0:
        parser.error("--duration must be positive")
    if args.max_batch < 1:
        parser.error("--max-batch must be >= 1")
    if args.load <= 0:
        parser.error("--load must be positive")
    if args.stripe < 1:
        parser.error("--stripe must be >= 1")
    if args.stripe > 1 and args.stripe % 2:
        parser.error("--stripe must be 1 or even (boards pair up)")
    if args.stripe > args.devices:
        parser.error("--stripe cannot exceed --devices")
    faults = retry = None
    if args.retry and not args.faults:
        parser.error("--retry only applies under --faults")
    if args.faults:
        if args.engine == "fast":
            parser.error("--faults requires --engine des (the fast "
                         "engine is the fault-free parity oracle)")
        try:
            faults = make_fault_process(args.faults)
        except (ValueError, OSError) as exc:
            parser.error(f"--faults: {exc}")
        if args.retry:
            try:
                retry = make_retry_policy(args.retry)
            except ValueError as exc:
                parser.error(f"--retry: {exc}")
    autoscale = None
    if args.autoscale:
        if args.engine == "fast":
            parser.error("--autoscale requires --engine des (the fast "
                         "engine is the fixed-pool parity oracle)")
        try:
            autoscale = make_scale_policy(args.autoscale)
        except ValueError as exc:
            parser.error(f"--autoscale: {exc}")

    config = FabConfig()
    scenarios = build_scenarios(config, num_devices=args.devices,
                                duration_s=args.duration,
                                target_load=args.load,
                                training_stripe=args.stripe)
    scenarios["slo_mixed"] = build_slo_scenario(
        config, num_devices=args.devices, duration_s=args.duration,
        target_load=args.load, training_stripe=args.stripe)
    if args.scenario == "all":
        selected = list(scenarios)
    elif args.scenario in scenarios:
        selected = [args.scenario]
    else:
        print(f"unknown scenario {args.scenario!r}; "
              f"try: {', '.join(scenarios)} or all")
        return 1
    if (args.timeline or args.metrics) and len(selected) != 1:
        parser.error("--timeline/--metrics record one run: pick a "
                     "single --scenario, not 'all'")
    if args.arrivals:
        try:
            scenarios = {name: scenarios[name].with_arrivals(args.arrivals)
                         for name in selected}
        except (ValueError, OSError) as exc:
            parser.error(f"--arrivals: {exc}")
    price = (PriceSignal.diurnal(slot_s=args.duration / 4.0)
             if args.price == "diurnal" else PriceSignal.flat())
    simulator = ServingSimulator(config, num_devices=args.devices,
                                 max_batch=args.max_batch)
    stamp = provenance(seed=args.seed, config=config,
                       policy=args.policy, price=args.price,
                       engine=args.engine,
                       arrivals=args.arrivals or "default",
                       faults=args.faults or "none",
                       retry=args.retry or "none",
                       autoscale=args.autoscale or "none")
    timeline: Optional[TimelineRecorder] = None
    metrics: Optional[MetricsRecorder] = None
    if args.timeline:
        timeline = TimelineRecorder(meta=dict(stamp))
    if args.metrics:
        window_s = (args.metrics_window if args.metrics_window
                    else args.duration / 40.0)
        if window_s <= 0:
            parser.error("--metrics-window must be positive")
        metrics = MetricsRecorder(window_s=window_s, meta=dict(stamp))
    recorder = compose(timeline, metrics)
    reports = []
    for name in selected:
        report = simulator.run(scenarios[name], seed=args.seed,
                               policy=args.policy, price=price,
                               recorder=recorder, engine=args.engine,
                               faults=faults, retry=retry,
                               autoscale=autoscale)
        reports.append(report)
        print_result(report.to_experiment_result())
        print(report.format())
        print()
    if timeline is not None:
        if args.stripe > 1:
            # Embed the striped training schedule as its own process:
            # per-board FU/HBM tracks plus the shared CMAC link, so
            # the gang spans on the serving tracks can be opened up
            # into the intra-job synchronization structure.
            from .reference import lr_training_trace
            from .striped_lowering import lower_striped_trace
            training, plan = lr_training_trace(config)
            lower_striped_trace(
                training, args.stripe, config,
                plan=plan).schedule().record_timeline(timeline, config)
        timeline.save(args.timeline)
        print(f"timeline written to {args.timeline} "
              f"(open at ui.perfetto.dev)")
    if metrics is not None:
        metrics.save(args.metrics)
        print(f"metrics written to {args.metrics} "
              f"(render with: python -m repro timeline "
              f"{args.metrics})")
    if args.json:
        payload = {
            "meta": stamp,
            "reports": [dataclasses.asdict(r) for r in reports],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(f"report written to {args.json}")
    return 0


def run_timeline(argv: List[str]) -> int:
    """Entry point for ``python -m repro timeline``: render a metrics
    artifact (``repro serve --metrics``) as a terminal summary."""
    parser = argparse.ArgumentParser(
        prog="repro timeline",
        description="render a serving metrics artifact as a terminal "
                    "utilization/queue-depth summary")
    parser.add_argument("artifact", help="metrics JSON written by "
                                         "'repro serve --metrics'")
    parser.add_argument("--width", type=int, default=24,
                        help="bar width in characters (default 24)")
    parser.add_argument("--rows", type=int, default=48,
                        help="max chart rows before decimation")
    args = parser.parse_args(argv)
    if args.width < 1 or args.rows < 1:
        parser.error("--width and --rows must be >= 1")
    with open(args.artifact) as fh:
        data = json.load(fh)
    if "traceEvents" in data:
        print(f"{args.artifact} is a timeline artifact — load it at "
              f"ui.perfetto.dev; this command renders --metrics "
              f"output")
        return 1
    if "windows" not in data:
        print(f"{args.artifact} is not a serving metrics artifact")
        return 1
    print(render_metrics(data, width=args.width, max_rows=args.rows))
    return 0


def run_stripe_scale(argv: List[str]) -> int:
    """Entry point for ``python -m repro stripe-scale``."""
    from ..experiments.striping_scale import (DEFAULT_BATCHES,
                                              DEFAULT_BOARDS,
                                              DEFAULT_POLICIES,
                                              run_sweep)
    parser = argparse.ArgumentParser(
        prog="repro stripe-scale",
        description="stripe one trace across the FAB-2 pool and "
                    "reconcile the trace-driven speedup against the "
                    "analytic MultiFpgaSystem model")
    parser.add_argument("--boards", type=int, nargs="+",
                        default=list(DEFAULT_BOARDS),
                        help="pool sizes to sweep (1 or even)")
    parser.add_argument("--batches", type=int, nargs="+",
                        default=list(DEFAULT_BATCHES),
                        help="batched ciphertexts per training step")
    parser.add_argument("--policies", nargs="+",
                        default=list(DEFAULT_POLICIES),
                        choices=list(DEFAULT_POLICIES),
                        help="board-assignment policies to sweep")
    parser.add_argument("--no-prefetch", action="store_true",
                        help="schedule without key prefetching")
    parser.add_argument("--json", metavar="PATH",
                        default="stripe_scale.json",
                        help="JSON artifact path ('' to skip)")
    args = parser.parse_args(argv)
    if any(k < 1 or (k > 1 and k % 2) for k in args.boards):
        parser.error("--boards must be 1 or even (boards pair up)")
    if any(b < 1 for b in args.batches):
        parser.error("--batches must be >= 1")

    report = run_sweep(FabConfig(), boards=args.boards,
                       batches=args.batches, policies=args.policies,
                       prefetch=not args.no_prefetch)
    print_result(report.to_experiment_result())
    worst = report.worst_round_robin_error
    if worst is None:
        print("no multi-board round-robin points: nothing reconciled "
              "against the analytic model")
    else:
        print(f"worst round-robin |rel error| vs analytic: "
              f"{100 * worst:.3f}%")
    if args.json:
        report.save_json(args.json)
        print(f"sweep written to {args.json}")
    return 0
