"""The repository benchmark: one workload per process, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload serve_fast --seed 1 --seconds 10 --trace 0

``--trace 0`` imports the program three times in fresh interpreters,
sets the workload up three times from cold, times whole
passes for ``--seconds`` and prints every end-to-end metric that applies
to the workload (unit, direction and clock) with the output checks.
Host times are reported at a fixed reference speed: a timer signal runs
a tiny kernel (``speed.py``) every 50 ms while a step is timed, and the
step's wall time is rescaled by how fast the kernel ran meanwhile.
``--trace 1`` is the separate traced run: untraced passes, then passes
with ``perf_counter`` spans around the program's public entry points,
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` lists for that mode; the exit code is 1 when any
output check failed.  Full results (and, traced, the spans) are written
under ``perfbench/out/``.

``python3 perfbench/run.py --manifest`` regenerates ``BENCHMARK.json``
and ``perfbench/manifest.json`` from ``perfbench/spec.py``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedSampler, at_reference_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Cold imports and cold set-ups per run; setup_s adds their medians.
SETUPS = 3
#: Imports the program and the workloads in a fresh interpreter and
#: prints how long that took.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path[:0] = sys.argv[1:]; import workloads; "
                "print(time.perf_counter() - t)")
#: Kernel samples that set the host's speed during one pass.
SAMPLES_PER_PASS = 16
#: Traced passes are capped: every span stays in memory until the end.
MAX_TRACED_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="regenerate BENCHMARK.json and manifest.json")
    args = parser.parse_args(argv)
    if not args.manifest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timed_passes(workload, state, seconds, min_passes, tracer=None,
                 max_passes=None, sampler=None):
    """Run passes until ``seconds`` have elapsed (at least
    ``min_passes``); returns the outputs, their durations and a mark for
    each pass: its root span id when traced, or the kernel samples the
    active ``sampler`` took during it."""
    outs, times, marks = [], [], []
    deadline = time.perf_counter() + seconds
    while len(outs) < min_passes or time.perf_counter() < deadline:
        if max_passes is not None and len(outs) >= max_passes:
            break
        first = len(sampler.samples) if sampler else 0
        start = time.perf_counter()
        if tracer is None:
            outs.append(workload.run_pass(state))
        else:
            with tracer.span("pass") as root:
                outs.append(workload.run_pass(state, tracer))
            marks.append(root.sid)
        times.append(time.perf_counter() - start)
        if sampler:
            marks.append(sampler.samples[first:])
    return outs, times, marks


def pass_times_at_reference_speed(times, samples) -> list:
    """Each pass's wall time at the reference speed.  The speed during
    pass ``i`` is set by the kernel samples taken during it, widened by
    a pass on each side until they number ``SAMPLES_PER_PASS``."""
    rescaled = []
    for i, seconds in enumerate(times):
        lo, hi = i, i + 1
        while (sum(map(len, samples[lo:hi])) < SAMPLES_PER_PASS
               and (lo > 0 or hi < len(samples))):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(samples))
        rescaled.append(at_reference_speed(
            seconds, [t for during in samples[lo:hi] for t in during]))
    return rescaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_import_times() -> list:
    """Import times of the program and the workloads, each import in a
    fresh interpreter (this process has imported them already)."""
    times = []
    for _ in range(SETUPS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"),
             str(HERE)], capture_output=True, text=True, check=True,
            timeout=120)
        times.append(float(done.stdout))
    return times


def determinism_errors(outs, reference=None, what="pass"):
    reference = reference or outs[0].digest
    return [f"{what} {i} digest {o.digest} != {reference}"
            for i, o in enumerate(outs) if o.digest != reference]


def run_untraced(workload, args):
    import spec

    with SpeedSampler() as sampler:
        import_times = cold_import_times()
        setup_times = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            state = workload.setup(args.seed)
            setup_times.append(time.perf_counter() - start)
        setup_samples = sampler.samples
    with SpeedSampler() as sampler:
        outs, wall_times, samples = timed_passes(
            workload, state, args.seconds, workload.min_passes,
            sampler=sampler)
    times = pass_times_at_reference_speed(wall_times, samples)
    sim, finish_ops, errors = workload.finish(state, outs[0])
    errors = [e for o in outs for e in o.errors] + errors
    errors += determinism_errors(outs)
    host_s = statistics.median(times)
    metrics = {
        "setup_s": at_reference_speed(statistics.median(import_times)
                                      + statistics.median(setup_times),
                                      setup_samples),
        "host_s": host_s,
        "peak_rss_mb": peak_rss_mb(),
        **{k: v for k, v in sim.items() if k in spec.END_TO_END},
    }
    if "arrivals" in sim:
        metrics["sim_jobs_per_host_s"] = sim["arrivals"] / host_s
    attempted = sum(o.ops for o in outs) + finish_ops
    details = {"pass_s": times, "pass_wall_s": wall_times,
               "pass_kernel_s": [statistics.median(during) if during
                                 else None for during in samples],
               "setup_repeat_s": setup_times, "import_s": import_times,
               "setup_kernel_s": statistics.median(setup_samples),
               "host_wall_s": statistics.median(wall_times),
               "digest": outs[0].digest,
               "extra": {k: v for k, v in sim.items()
                         if k not in spec.END_TO_END}}
    return metrics, attempted, errors, details


def run_traced(workload, args):
    import spec
    from tracer import Tracer, attribution, layer_self_times

    state = workload.setup(args.seed)
    plain, plain_times, _ = timed_passes(workload, state, args.seconds / 2,
                                         min_passes=1)
    tracer = Tracer()
    with tracer.patched(workload.boundaries()):
        with tracer.span("setup") as setup_root:
            traced_state = workload.setup(args.seed)
        setup_counts = dict(tracer.counts)
        traced, traced_times, roots = timed_passes(
            workload, traced_state, args.seconds / 2, min_passes=1,
            tracer=tracer, max_passes=MAX_TRACED_PASSES)
    _, finish_ops, errors = workload.finish(state, plain[0])
    errors = [e for o in plain + traced for e in o.errors] + errors
    errors += determinism_errors(plain)
    errors += determinism_errors(traced, plain[0].digest, "traced pass")

    checks = {root: attribution(tracer.spans, root)
              for root in [setup_root.sid] + roots}
    errors += [f"attribution: span tree {root} does not reconcile "
               f"({a.attributed_s!r} + {a.residual_s!r} != {a.total_s!r})"
               for root, a in checks.items() if not a.ok]

    # Layer self time: the traced set-up plus the median traced pass.
    setup_layers = layer_self_times(tracer.spans, setup_root.sid)
    pass_layers = [layer_self_times(tracer.spans, root) for root in roots]
    names = set(setup_layers).union(*pass_layers)
    self_s = {name: setup_layers.get(name, 0.0) + statistics.median(
        layers.get(name, 0.0) for layers in pass_layers) for name in names}
    # Counts: the set-up plus one pass (passes repeat exactly).
    counts = {name: setup_counts.get(name, 0)
              + (total - setup_counts.get(name, 0)) // len(roots)
              for name, total in tracer.counts.items()}

    metrics = {name: 0 for name in spec.PER_LAYER}
    for name in spec.PER_LAYER:
        if name.endswith(".host_s"):
            metrics[name] = self_s.get(name[:-len(".host_s")], 0.0)
        elif name in counts:
            metrics[name] = counts[name]
    metrics["key_cache.requests"] = counts.get("key_cache.calls", 0)
    metrics["autoscaler.decisions"] = counts.get("autoscaler.calls", 0)
    calls = counts.get("policies.next_batch.calls", 0)
    metrics["policies.dispatch_ratio"] = (
        counts.get("policies.next_batch.dispatched", 0) / calls
        if calls else 0.0)
    metrics.update(workload.layer_metrics(state, plain[0]))
    pass_checks = [checks[root] for root in roots]
    metrics["trace.overhead_s"] = (statistics.median(traced_times)
                                   - statistics.median(plain_times))
    metrics["trace.coverage"] = (sum(a.attributed_s for a in pass_checks)
                                 / sum(a.total_s for a in pass_checks))

    OUT.mkdir(exist_ok=True)
    tracer.dump(str(OUT / f"trace-{workload.name}.json"))
    attempted = sum(o.ops for o in plain + traced) + finish_ops
    details = {"untraced_pass_s": plain_times, "traced_pass_s": traced_times,
               "digest": plain[0].digest, "spans": len(tracer.spans),
               "self_s": self_s, "counts": counts}
    return metrics, attempted, errors, details


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(workload, args, metrics, attempted, errors, details):
    import spec

    failed = min(len(errors), attempted)
    mode = "traced" if args.trace else "untraced"
    print(f"== perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} ({mode}) ==")
    if args.trace:
        table = {n: (u, b, "-") for n, (u, b) in spec.PER_LAYER.items()}
    else:
        table = {n: (u, b, c) for n, (u, b, c, w, _) in
                 spec.END_TO_END.items() if workload.name in w}
    idle = [name for name in table if args.trace and not metrics[name]]
    for name, (unit, better, clock) in table.items():
        if name not in idle:
            print(f"  {name:40s} {fmt(metrics[name]):>14s} {unit:12s} "
                  f"{better:6s} {clock}")
    if idle:
        print(f"  ({len(idle)} per-layer metrics of layers that do not run "
              f"on {workload.name} report 0)")
    if "host_wall_s" in details:
        print(f"  host_s at the reference speed; median pass wall time "
              f"{fmt(details['host_wall_s'])} s")
    for key in ("digest", "extra"):
        if key in details:
            print(f"  {key}: {details[key]}")
    print(f"  operations: attempted {attempted}, succeeded "
          f"{attempted - failed}, failed {failed}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    path.write_text(json.dumps({
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "metrics": metrics,
        "errors": errors, "attempted": attempted, "details": details},
        indent=1, default=repr))

    listed = (spec.PER_LAYER if args.trace
              else {n: spec.END_TO_END[n] for n in spec.GATED})
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": v[0]}
                    for n, v in listed.items()}}))
    return not errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the repro sources are missing under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.manifest:
        from manifest import write_manifest
        write_manifest(ROOT)
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(workload, args)
    else:
        result = run_untraced(workload, args)
    # A failed output check prints its result and still fails the run.
    return 0 if report(workload, args, *result) else 1


if __name__ == "__main__":
    sys.exit(main())
