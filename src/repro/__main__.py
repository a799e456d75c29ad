"""Command-line entry point: reproduce the paper's evaluation.

Usage::

    python -m repro list                 # available experiments
    python -m repro all                  # run everything
    python -m repro table7 table8        # run specific artifacts
    python -m repro trace lr_iteration   # lower a trace, print its cost
    python -m repro serve --scenario mixed   # serving simulation
    python -m repro serve-sweep          # cost-optimal pool sweep
    python -m repro slo-sweep            # policy x load x mix SLO sweep
    python -m repro fault-sweep          # MTBF x retry resilience sweep
    python -m repro autoscale-sweep      # scale policy x arrival pattern
    python -m repro resilience-autoscale-sweep  # spares + elastic vs either
    python -m repro stripe-scale         # FAB-2 trace-striping sweep
    python -m repro timeline metrics.json    # render a metrics artifact
"""

from __future__ import annotations

import sys

from .experiments import ALL_EXPERIMENTS, SWEEPS, print_result


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    if argv[0] == "trace":
        from .runtime.cli import run_trace
        return run_trace(argv[1:])
    if argv[0] == "serve":
        from .runtime.cli import run_serve
        return run_serve(argv[1:])
    if argv[0] in SWEEPS:
        return SWEEPS[argv[0]].cli(argv[1:])
    if argv[0] == "stripe-scale":
        from .runtime.cli import run_stripe_scale
        return run_stripe_scale(argv[1:])
    if argv[0] == "timeline":
        from .runtime.cli import run_timeline
        return run_timeline(argv[1:])
    if argv[0] == "list":
        for key, module in ALL_EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{key:22s} {doc}")
        print(f"{'trace':22s} Lower a workload trace to a FAB program "
              f"and cost it.")
        print(f"{'serve':22s} Simulate multi-tenant serving on a FAB "
              f"pool.")
        for command, sweep in SWEEPS.items():
            print(f"{command:22s} {sweep.blurb}")
        print(f"{'stripe-scale':22s} Stripe a trace across the FAB-2 "
              f"pool; reconcile vs the analytic model.")
        print(f"{'timeline':22s} Render a serve --metrics artifact as "
              f"a terminal summary.")
        return 0
    targets = list(ALL_EXPERIMENTS) if argv[0] == "all" else argv
    unknown = [t for t in targets if t not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"try: {', '.join(ALL_EXPERIMENTS)}")
        return 1
    for target in targets:
        print_result(ALL_EXPERIMENTS[target].run())
    return 0


if __name__ == "__main__":
    sys.exit(main())
