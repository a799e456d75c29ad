"""What the benchmark measures: metrics, workloads and predictions.

``BENCHMARK.json`` and ``perfbench/manifest.json`` are generated from
this module (``python3 perfbench/run.py --manifest``); a unit test
fails when either file drifts from it.

Two clocks appear.  ``sim`` metrics come from the FAB model or the
serving simulator: simulated cycles and seconds, exact for a seed.
``host`` metrics are wall time and memory of this process and carry
machine noise.  Host times are given at the reference speed: each timed
step's wall time times ``speed.NOMINAL_S`` over the median time of a
tiny fixed kernel that a timer signal runs every 50 ms during the step,
so a host that drifts faster or slower moves them far less than it
moves the raw wall time (also printed).  Only host metrics are gated by
a relative bound: a change to the program must leave every ``sim``
metric bit-identical (the printed digest), or say why it moved.
"""

from __future__ import annotations

SERVE = ("serve_fast", "serve_des", "serve_chaos")
ALL = ("paper_model",) + SERVE

#: name -> (unit, better, clock, workloads, definition)
END_TO_END = {
    "setup_s": ("s", "lower", "host", ALL,
                "process start until the first timed pass is ready: the "
                "median of three imports, each in a fresh interpreter, "
                "plus the median of three cold set-ups (FabConfig, "
                "op-cost memo cleared, lowering, CKKS keygen, scenario "
                "build), at the reference speed"),
    "host_s": ("s", "lower", "host", ALL,
               "median host wall time of one timed pass, at the reference "
               "speed"),
    "sim_jobs_per_host_s": ("jobs/s", "higher", "host", SERVE,
                            "simulated arrivals handled per host second, "
                            "at the reference speed"),
    "peak_rss_mb": ("MB", "lower", "host", ALL,
                    "peak resident memory of the workload's process"),
    "sim_p50_ms": ("ms", "lower", "sim", SERVE,
                   "median latency of the interactive class"),
    "sim_p99_ms": ("ms", "lower", "sim", SERVE,
                   "p99 latency of the interactive class; at least 10 "
                   "samples lie beyond it"),
    "sim_slo_attainment": ("fraction", "higher", "sim", SERVE,
                           "share of deadline-carrying jobs that met their "
                           "deadline; rejected and shed jobs are misses"),
    "sim_failed_frac": ("fraction", "lower", "sim", SERVE,
                        "(rejected + shed + shed_degraded) / arrivals"),
    "sim_goodput_jps": ("jobs/s", "higher", "sim", SERVE,
                        "ServingReport.goodput_jps"),
    "sim_capacity_load": ("load", "higher", "sim", ("serve_fast",),
                          "highest ladder load where interactive p99 meets "
                          "the SLO and makespan stays within 5% of the "
                          "horizon"),
    "board_s_per_good_job": ("board-s/job", "lower", "sim", ("serve_chaos",),
                             "provisioned board-seconds per deadline-met "
                             "job"),
    "boot_max_err": ("abs", "lower", "exact", ("paper_model",),
                     "largest decrypt error of the functional bootstrap "
                     "against its input"),
    "paper_err_geomean": ("rel", "lower", "sim", ("paper_model",),
                          "geometric mean of |model/paper - 1| over the "
                          "FAB rows of Tables 5-8"),
    "paper_err_max": ("rel", "lower", "sim", ("paper_model",),
                      "worst of those rows"),
}

#: End-to-end metrics every workload reports, with the share of the
#: parent's median by which a change may worsen them.  The others are
#: printed and exact for a seed, so the digest gates them instead.
GATED = {"setup_s": 0.25, "host_s": 0.25, "peak_rss_mb": 0.1}

#: The FAB rows of Tables 5-8 scored by ``paper_err.*``.
PAPER_ROW_NAMES = ("table5.Add", "table5.Mult", "table5.Rescale",
                   "table5.Rotate", "table6.NTT", "table6.Mult",
                   "table7.FAB", "table8.FAB-1", "table8.FAB-2")

#: Per-layer metrics of the traced run: name -> (unit, better).  Host
#: times are self times and counts are calls, both over one traced
#: set-up plus the median traced pass; a layer that does not run on a
#: workload reports 0 there.
PER_LAYER = {
    "fhe.ntt.calls": ("count", "lower"),
    "fhe.ntt.host_s": ("s", "lower"),
    "fhe.keyswitch.calls": ("count", "lower"),
    "fhe.keyswitch.host_s": ("s", "lower"),
    "fhe.evaluator.calls": ("count", "lower"),
    "fhe.evaluator.host_s": ("s", "lower"),
    "fhe.bootstrap.mod_raise.host_s": ("s", "lower"),
    "fhe.bootstrap.coeff_to_slot.host_s": ("s", "lower"),
    "fhe.bootstrap.eval_mod.host_s": ("s", "lower"),
    "fhe.bootstrap.slot_to_coeff.host_s": ("s", "lower"),
    "capture.host_s": ("s", "lower"),
    "capture.ops": ("count", "lower"),
    "lowering.calls": ("count", "lower"),
    "lowering.host_s": ("s", "lower"),
    "scheduler.tasks": ("count", "lower"),
    "scheduler.host_s": ("s", "lower"),
    "lowering.bootstrap.sim_ms": ("ms", "lower"),
    "lowering.bootstrap.fu_util": ("fraction", "higher"),
    "lowering.bootstrap.hbm_util": ("fraction", "higher"),
    "lowering.bootstrap.key_mb": ("MB", "lower"),
    "lowering.lr_iteration.sim_ms": ("ms", "lower"),
    **{f"paper_err.{row}": ("rel", "lower") for row in PAPER_ROW_NAMES},
    "arrivals.jobs": ("count", "higher"),
    "arrivals.host_s": ("s", "lower"),
    "fast_engine.host_s": ("s", "lower"),
    "fast_engine.batches": ("count", "lower"),
    "serving.host_s": ("s", "lower"),
    "serving.batches": ("count", "lower"),
    "serving.mean_batch_size": ("jobs", "higher"),
    "policies.next_batch.calls": ("count", "lower"),
    "policies.next_batch.host_s": ("s", "lower"),
    "policies.dispatch_ratio": ("fraction", "higher"),
    "policies.enqueue.calls": ("count", "lower"),
    "policies.rejected": ("count", "lower"),
    "key_cache.requests": ("count", "lower"),
    "key_cache.host_s": ("s", "lower"),
    "key_cache.hit_rate": ("fraction", "higher"),
    "key_cache.gb_loaded": ("GB", "lower"),
    "key_cache.load_share": ("fraction", "lower"),
    "membership.transitions": ("count", "lower"),
    "membership.host_s": ("s", "lower"),
    **{f"membership.board_s.{state}": ("board-s", "lower")
       for state in ("active", "draining", "parked", "failed",
                     "repairing")},
    "membership.board_s.unreconciled": ("board-s", "lower"),
    "faults.board_faults": ("count", "lower"),
    "faults.failures": ("count", "lower"),
    "faults.retries": ("count", "lower"),
    "faults.wasted_share": ("fraction", "lower"),
    "autoscaler.decisions": ("count", "lower"),
    "autoscaler.host_s": ("s", "lower"),
    "autoscaler.resize_events": ("count", "lower"),
    "obs.recorder.calls": ("count", "lower"),
    "obs.recorder.host_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("fraction", "higher"),
}

#: Which end-to-end figure each layer should move, and where; written
#: down before any optimisation is measured against it.
PREDICTIONS = [
    ("fhe.ntt", {"paper_model": "host_s", "serve_*": "nothing"}),
    ("fhe.keyswitch", {"paper_model": "host_s"}),
    ("fhe.evaluator", {"paper_model": "host_s; boot_max_err only if "
                       "numerics change"}),
    ("fhe.bootstrap", {"paper_model": "host_s and boot_max_err"}),
    ("capture", {"paper_model": "host_s"}),
    ("lowering+scheduler (host)", {
        "serve_*": "setup_s, but it is a few ms: no visible move"}),
    ("lowering (simulated cycles)", {
        "paper_model": "paper_err_*",
        "serve_*": "sim_p99_ms and sim_capacity_load (service times are "
                   "lowered cycles)"}),
    ("experiments", {"paper_model": "paper_err_geomean, paper_err_max"}),
    ("arrivals", {"serve_fast": "sim_jobs_per_host_s",
                  "serve_des": "sim_jobs_per_host_s"}),
    ("fast_engine", {"serve_fast": "host_s and sim_jobs_per_host_s"}),
    ("serving", {"serve_des": "host_s"}),
    ("policies", {"serve_des": "host_s; rejections move "
                  "sim_slo_attainment and sim_failed_frac"}),
    ("key_cache", {"serve_des": "sim_p99_ms and sim_slo_attainment",
                   "serve_fast": "almost nothing (about 0.8 of requests "
                                 "hit)"}),
    ("membership", {"serve_chaos": "board_s_per_good_job and host_s"}),
    ("faults", {"serve_chaos": "sim_goodput_jps and sim_failed_frac"}),
    ("autoscaler", {"serve_chaos": "board_s_per_good_job"}),
    ("obs", {"serve_chaos": "host_s only; the other workloads run with the "
                            "recorder off"}),
]

#: The per-workload record kept in manifest.json.
WORKLOADS = {
    "paper_model": {
        "why": "only workload where fhe, capture, lowering and core do the "
               "work and no serving code runs",
        "reason": "An NTT or key-switch speed-up shows here, and it is "
                  "predicted to move nothing on serve_*.",
        "loop": "closed: one caller, one operation at a time; at least "
                "five passes per run",
        "offered_load": "one pass at a time: a functional bootstrap (N=64, "
                        "19 limbs, dnum=4, degree-63 EvalMod), one "
                        "captured encrypted LR iteration lowered to FAB, "
                        "four paper-scale reference traces through "
                        "cost_trace, Tables 5-8",
        "cache_start": "op-cost memo cold in each process, filled during "
                       "set-up; CKKS keys generated during set-up",
        "held_out_seed": 9973,
    },
    "serve_fast": {
        "why": "fast engine at fleet scale: vectorized arrivals, the "
               "vectorized core and percentiles, a key cache that mostly "
               "hits",
        "reason": "The DES, policy objects, membership and the recorder do "
                  "none of the work here.",
        "loop": "open, in simulated time",
        "offered_load": "slo_mixed with edf on 8 boards, nominal load 0.6 "
                        "over a 300 s horizon; capacity ladder 0.5-1.2 over "
                        "60 s horizons",
        "cache_start": "key caches empty; op-cost memo cold in each "
                       "process, filled during set-up",
        "held_out_seed": 9973,
    },
    "serve_des": {
        "why": "fixed-pool DES loop, policy objects and KeyCache misses "
               "priced over PCIe: 3 classes x 200 tenants, cache of 3 "
               "working sets",
        "reason": "The same key-cache layer as serve_fast used the other "
                  "way (misses instead of hits); the one-DES-loop gate is "
                  "measured here.",
        "loop": "open, in simulated time",
        "offered_load": "3 classes x 200 tenants with edf on 8 boards at "
                        "0.7 of cold-service capacity over a 400 s horizon",
        "cache_start": "key caches empty; op-cost memo cold in each "
                       "process, filled during set-up",
        "held_out_seed": 9973,
    },
    "serve_chaos": {
        "why": "only workload that runs run_with_ledger, faults, the "
               "autoscaler and recorder hooks",
        "reason": "Those layers would otherwise go unmeasured; it sits on "
                  "the other side of the one-loop refactor from serve_des.",
        "loop": "open, in simulated time",
        "offered_load": "diurnal (amplitude 0.9) interactive slo_mixed with "
                        "edf on 8 boards at load 0.2 over 30 s; faults "
                        "poisson mtbf=4 s, mttr=0.02 s; backoff retry; "
                        "predictive (target 0.6) + spare autoscaling; MetricsRecorder "
                        "windows of 0.1 s",
        "cache_start": "key caches empty; op-cost memo cold in each "
                       "process, filled during set-up",
        "held_out_seed": 9973,
    },
}

OPEN_LOOP_NOTE = ("The open loops run in simulated time: arrivals are "
                  "generated up front and timed from their due instant "
                  "inside the simulator, so there is no host-side "
                  "generator lateness to report.")
