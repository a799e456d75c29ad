"""Trace-driven runtime: capture, lowering, and multi-tenant serving.

The bridge between the functional CKKS layer (:mod:`repro.fhe`) and
the FAB performance model (:mod:`repro.core`):

* :mod:`~repro.runtime.optrace` — the serializable trace IR.
* :mod:`~repro.runtime.capture` — a tracing :class:`Evaluator` that
  records any application's homomorphic ops as it runs.
* :mod:`~repro.runtime.lowering` — compiles traces to
  :class:`repro.core.program.FabProgram` task graphs with per-op
  FAB costs and key-prefetch edges.
* :mod:`~repro.runtime.reference` — paper-scale traces of the
  evaluated workloads (LR iteration, bootstrap, inference, analytics).
* :mod:`~repro.runtime.serving` — a discrete-event, multi-tenant
  serving simulator over a FAB device pool: batching, per-tenant
  switching-key HBM residency, throughput and tail latency.
* :mod:`~repro.runtime.policies` — pluggable admission/scheduling
  policies for the simulator: ``fifo``, ``edf`` (deadline-ordered
  with admission control), and ``deferrable-window`` (price-aware
  batch windows), plus the :class:`PriceSignal` they schedule around.
* :mod:`~repro.runtime.autoscaler` — elastic pool autoscaling:
  pluggable scale policies (reactive thresholds, predictive rate
  trend) over windowed utilization/queue/arrival signals, driving
  voluntary board park/unpark with drain semantics and cold-cache
  rejoin.
* :mod:`~repro.runtime.membership` — the serving DES event loop
  (fixed pool, fault injection and autoscaling alike) and its
  pool-membership ledger: per-board
  ``active | draining | parked | failed | repairing`` states with
  explicit faults-vs-scaler arbitration rules.
* :mod:`~repro.runtime.fast_engine` — the vectorized second engine
  behind ``ServingSimulator.run(engine="fast")``: numpy-batched
  arrivals and bookkeeping at ~10x the DES event rate, held to the
  exact engine by a parity suite.
* :mod:`~repro.runtime.arrivals` — the arrival-process library both
  engines draw from: Poisson (seed-for-seed the historical default),
  diurnal curves, MMPP bursts, flash crowds, JSONL trace replay.
* :mod:`~repro.runtime.stats` — streaming percentile estimators
  (P-squared, bottom-k reservoir) for fleet-scale reports.
* :mod:`~repro.runtime.striped_lowering` — FAB-2 trace striping: shard
  one trace's batch dimension across the pool, schedule per-board
  lanes with CMAC gather/broadcast traffic.
"""

from .arrivals import (ARRIVAL_PROCESSES, ArrivalProcess, DiurnalProcess,
                       FlashCrowdProcess, MMPPProcess, PoissonProcess,
                       RateCurveProcess, TraceReplayProcess, make_process)
from .autoscaler import (AVAILABILITY_FLOOR, SCALE_POLICIES,
                         PredictiveScalePolicy, ReactiveScalePolicy,
                         ScalePolicy, ScaleSignals, ScheduleScalePolicy,
                         SpareScalePolicy, make_scale_policy)
from .capture import (CountingKeySwitcher, TracingEncoder,
                      TracingEvaluator, capture)
from .fast_engine import (STREAMING_AUTO_THRESHOLD, SetKeyCache, run_fast)
from .faults import (FAULT_PROCESSES, RETRY_POLICIES,
                     ExponentialBackoffRetry, FaultProcess,
                     FaultSchedule, ImmediateRetry, NoRetry,
                     PoissonFaultProcess, RetryPolicy,
                     TraceFaultProcess, WeibullFaultProcess,
                     make_fault_process, make_retry_policy)
from .membership import (BOARD_STATES, PoolLedger, run_with_ledger)
from .lowering import (KeyWorkingSet, LoweredCost, LOWERING_MAP,
                       cost_trace, key_working_set, lower_trace,
                       lowered_op, switching_key_bytes)
from .optrace import TRACE_KINDS, OpTrace, TraceOp
from .policies import (POLICIES, DeferrableWindowPolicy, EdfPolicy,
                       FifoPolicy, PolicyContext, PriceSignal,
                       SchedulingPolicy, make_policy)
from .reference import (REFERENCE_TRACES, analytics_trace,
                        bootstrap_trace, build_reference_trace,
                        lr_inference_trace, lr_iteration_trace)
from .serving import (ENGINES, ArrivalChunk, Job, JobClass, KeyCache,
                      Scenario, ServingReport, ServingSimulator, Stream,
                      WorkloadStats, build_job_classes, build_scenarios,
                      build_slo_scenario, default_interactive_slo_ms,
                      percentile)
from .serving_baseline import BaselineKeyCache, baseline_run
from .specs import SpecError
from .stats import LatencyAccumulator, P2Quantile, ReservoirQuantiles
from .striped_lowering import (BOARD_POLICIES, BoardStriper, StripePlan,
                               StripedCost, StripedProgram,
                               StripedReport, StripedTrace,
                               TraceSection, cost_striped_trace,
                               infer_plan, largest_viable_stripe,
                               lower_striped_trace, stripe_trace)

__all__ = [
    "ARRIVAL_PROCESSES", "AVAILABILITY_FLOOR", "ArrivalChunk",
    "ArrivalProcess",
    "BOARD_POLICIES", "BOARD_STATES", "BaselineKeyCache", "BoardStriper",
    "baseline_run",
    "CountingKeySwitcher", "DeferrableWindowPolicy", "DiurnalProcess",
    "EdfPolicy", "ENGINES", "ExponentialBackoffRetry",
    "FAULT_PROCESSES", "FaultProcess", "FaultSchedule",
    "FifoPolicy", "FlashCrowdProcess", "ImmediateRetry",
    "Job", "JobClass", "KeyCache",
    "KeyWorkingSet", "LOWERING_MAP", "LatencyAccumulator",
    "LoweredCost", "MMPPProcess", "NoRetry", "OpTrace",
    "P2Quantile", "POLICIES", "PoissonFaultProcess", "PoissonProcess",
    "PolicyContext", "PoolLedger", "PriceSignal",
    "PredictiveScalePolicy",
    "REFERENCE_TRACES", "RETRY_POLICIES", "RateCurveProcess",
    "ReactiveScalePolicy", "ReservoirQuantiles", "RetryPolicy",
    "SCALE_POLICIES", "STREAMING_AUTO_THRESHOLD", "ScalePolicy",
    "ScaleSignals", "Scenario", "ScheduleScalePolicy",
    "SchedulingPolicy",
    "ServingReport", "ServingSimulator", "SetKeyCache",
    "SpareScalePolicy", "SpecError",
    "Stream", "StripePlan", "StripedCost", "StripedProgram",
    "StripedReport", "StripedTrace", "TRACE_KINDS",
    "TraceFaultProcess", "TraceOp", "TraceReplayProcess",
    "TraceSection", "TracingEncoder",
    "TracingEvaluator", "WeibullFaultProcess", "WorkloadStats",
    "analytics_trace",
    "bootstrap_trace", "build_job_classes", "build_reference_trace",
    "build_scenarios", "build_slo_scenario", "capture",
    "cost_striped_trace", "cost_trace",
    "default_interactive_slo_ms", "infer_plan", "key_working_set",
    "largest_viable_stripe",
    "lower_striped_trace", "lower_trace", "lowered_op",
    "lr_inference_trace", "lr_iteration_trace", "make_fault_process",
    "make_policy", "make_process", "make_retry_policy",
    "make_scale_policy",
    "percentile", "run_fast", "run_with_ledger", "stripe_trace",
    "switching_key_bytes",
]
