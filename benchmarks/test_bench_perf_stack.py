"""Perf-stack bench: the three sweep-scale hot paths this repo optimized.

* scheduler — heap-driven ``TaskGraph.schedule`` vs the
  frontier-scanning ``schedule_reference`` on a seeded layered DAG;
* lowering — memoized per-op costing vs a cold cost cache on the
  paper-scale bootstrap trace;
* serving — the DES on a tenant-heavy scenario (3 classes, thrashing
  key cache) at 256 and at 1024 tenants per class.  Both serve the
  same 15,923 jobs, so the host-time ratio measures dispatch work
  that grows with the number of (class, tenant) queues.

Results land in ``BENCH_perf_stack.json`` at the repo root, seeding
the tracked perf trajectory.  The serving tenant-scaling ratio must
stay <= 1.5 (<= 2.5 without ``PERF_SMOKE``); the asserted ceiling is
what CI's perf-smoke step enforces.
"""

import json
import os
import random
import time

from repro.core import program as core_program
from repro.core.params import FabConfig
from repro.core.scheduler import TaskGraph
from repro.runtime.lowering import cost_trace
from repro.runtime.reference import bootstrap_trace
from repro.runtime.serving import (Scenario, ServingSimulator, Stream,
                                   build_job_classes)

#: Tracked baseline artifact name.  Where a run writes it is the
#: ``bench_out_dir`` fixture's call: ``build/bench/`` by default, the
#: tracked repo-root baseline only under ``--update-baselines``.
BENCH_NAME = "BENCH_perf_stack.json"


def _best_of(fn, repeats=3):
    """Best-of-N wall time: robust against CI scheduling noise."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _layered_dag(tasks=800, width=24, seed=0):
    """A seeded layered DAG shaped like a lowered program: compute
    chains with cross-layer fetch edges on a multi-lane memory."""
    rng = random.Random(seed)
    g = TaskGraph()
    g.set_resource_lanes("hbm", 2)
    names = []
    for i in range(tasks):
        res = ("fu", "hbm", "cmac")[rng.randrange(3)]
        lo = max(0, i - width)
        deps = {names[rng.randrange(lo, i)] for _ in range(rng.randrange(3))
                if i > lo}
        names.append(f"t{i}")
        g.add(f"t{i}", res, rng.randrange(1, 200), deps=sorted(deps))
    return g


def test_bench_perf_stack(bench_out_dir):
    config = FabConfig()
    results = {}

    # Scheduler: heap vs frontier rescans, identical schedules.
    fast_s, fast_sched = _best_of(lambda: _layered_dag().schedule())
    naive_s, naive_sched = _best_of(
        lambda: _layered_dag().schedule_reference(), repeats=1)
    assert fast_sched.makespan == naive_sched.makespan
    assert all(fast_sched.tasks[n].start == t.start
               for n, t in naive_sched.tasks.items())
    results["scheduler"] = {
        "tasks": len(fast_sched.tasks),
        "fast_s": fast_s,
        "naive_s": naive_s,
        "speedup": naive_s / fast_s,
        "tasks_per_s": len(fast_sched.tasks) / fast_s,
    }

    # Lowering: cold cost cache vs memoized steady state.
    trace = bootstrap_trace(config)
    saved = dict(core_program._OP_COST_CACHE)
    core_program._OP_COST_CACHE.clear()
    t0 = time.perf_counter()
    cold_cost = cost_trace(trace, config)
    cold_s = time.perf_counter() - t0
    warm_s, warm_cost = _best_of(lambda: cost_trace(trace, config))
    core_program._OP_COST_CACHE.update(saved)
    assert warm_cost.cycles == cold_cost.cycles
    results["lowering"] = {
        "trace_ops": len(trace),
        "cold_s": cold_s,
        "memoized_s": warm_s,
        "speedup": cold_s / warm_s,
        "ops_per_s": len(trace) / warm_s,
    }

    # Serving: the DES on a tenant-heavy, cache-thrashed mix — the
    # sweep-scale regime — at 256 and 1024 tenants per class.  Tenants
    # only relabel the same arrivals, so the two runs serve the same
    # jobs; their host times are taken alternately, so a slow stretch
    # of the host slows both sides alike.
    classes = build_job_classes(config)
    inference = classes["lr_inference"]
    rate = 0.9 * 8 / inference.seconds(config)
    simulator = ServingSimulator(config, num_devices=8, max_batch=2,
                                 key_cache_bytes=4 * inference.key_bytes)

    def serve(tenants):
        scenario = Scenario("bench_heavy", 8.0, [
            Stream(job_class, rate / 3, num_tenants=tenants)
            for job_class in classes.values()])
        return lambda: simulator.run(scenario, seed=3)

    serve_small, serve_large = serve(256), serve(1024)
    small_s = large_s = float("inf")
    for _ in range(5):
        run_s, small = _best_of(serve_small, repeats=1)
        small_s = min(small_s, run_s)
        run_s, large = _best_of(serve_large, repeats=1)
        large_s = min(large_s, run_s)
    assert small.jobs_done == large.jobs_done
    tenant_scaling = large_s / small_s
    results["serving"] = {
        "jobs": small.jobs_done,
        "batches": small.batches,
        "tenant_queues": 3 * 256,
        "host_s": small_s,
        "batches_4x_tenants": large.batches,
        "tenant_queues_4x_tenants": 3 * 1024,
        "host_s_4x_tenants": large_s,
        "tenant_scaling": tenant_scaling,
        "jobs_per_s": small.jobs_done / small_s,
    }

    (bench_out_dir / BENCH_NAME).write_text(
        json.dumps(results, indent=1) + "\n")

    # The acceptance ceiling: four times the (class, tenant) queues must
    # leave the DES's host time nearly flat (it reads ~1.0-1.1; the
    # retired frontier-scanning loop, which rescanned every queue per
    # dispatch, read 4.0-4.4 on this measurement).  The hard ceiling is
    # enforced by CI's dedicated perf-smoke step (which sets
    # PERF_SMOKE=1 and gets a generous wall-clock budget); inside the
    # plain functional suite — which may share a noisy runner — only a
    # gross regression to per-queue dispatch work fails.
    ceiling = 1.5 if os.environ.get("PERF_SMOKE") else 2.5
    assert tenant_scaling <= ceiling, (
        f"serving dispatch grows with tenant queues: {tenant_scaling:.2f}x "
        f"host time at 4x tenants ({small_s:.3f}s -> {large_s:.3f}s)")
