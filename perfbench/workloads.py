"""The four benchmark workloads.

Each workload has a cold ``setup(seed)``, a ``run_pass`` the harness
times, a ``finish`` that derives the simulated metrics and runs the
checks that only need doing once per process, and the list of public
boundaries the traced run wraps.  Inputs depend only on the seed.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Dict, List

import numpy as np

from repro.apps.lr.data import Dataset
from repro.apps.lr.encrypted import EncryptedLrTrainer
from repro.core import FabConfig
from repro.core import program as core_program
from repro.core.scheduler import TaskGraph
from repro.experiments import (table5_basic_ops, table6_heax,
                               table7_bootstrap, table8_lr)
from repro.fhe import BootstrapConfig, Bootstrapper, CkksParams, CkksScheme
from repro.fhe.evaluator import Evaluator
from repro.fhe.keyswitch import KeySwitcher
from repro.fhe.ntt import NttContext
from repro.obs import MetricsRecorder, Recorder
from repro.runtime import (EdfPolicy, KeyCache, PoolLedger, Scenario,
                           ServingSimulator, SetKeyCache, Stream,
                           build_job_classes, build_reference_trace,
                           build_slo_scenario, capture,
                           default_interactive_slo_ms, fast_engine,
                           lowering, make_scale_policy, membership,
                           serving)
from repro.runtime.reference import REFERENCE_TRACES
from repro.runtime.serving import key_load_seconds

from checks import (PAPER_ROWS, beyond_p99, board_second_errors,
                    capacity_load, conservation_errors, digest, geomean,
                    paper_errors)

TABLES = {"table5": table5_basic_ops, "table6": table6_heax,
          "table7": table7_bootstrap, "table8": table8_lr}

INTERACTIVE = "lr_inference"


@dataclass
class PassOutput:
    """What one pass produced: a digest of every simulated statistic,
    the operations it attempted, and any failed output check."""

    digest: str
    ops: int
    errors: List[str]
    data: Dict[str, object]


def cold_op_cost_memo() -> None:
    """Empty the per-process op-cost memo so each set-up starts cold."""
    core_program._OP_COST_CACHE.clear()


def _count(name: str, size=len):
    def on_result(tracer, result):
        tracer.count(name, size(result))
    return on_result


def _lowering_boundaries():
    return [
        (lowering, "cost_trace", "lowering"),
        (serving, "cost_trace", "lowering"),
        (TaskGraph, "schedule", "scheduler",
         {"on_result": _count("scheduler.tasks", lambda r: len(r.tasks))}),
    ]


# ----------------------------------------------------------------------
# paper_model: the FAB model and functional CKKS, no serving code
# ----------------------------------------------------------------------

class PaperModel:
    name = "paper_model"
    min_passes = 5  # a pass is several seconds; a median needs a few

    def setup(self, seed: int):
        config = FabConfig()
        cold_op_cost_memo()
        # The tier-1 bootstrap test's parameters.
        scheme = CkksScheme(CkksParams(
            ring_degree=64, num_limbs=19, scale_bits=25, dnum=4,
            hamming_weight=8, first_prime_bits=30, seed=seed,
            num_extension_limbs=8))
        boot = Bootstrapper(scheme, BootstrapConfig(eval_mod_degree=63,
                                                    modulus_range=8))
        rng = np.random.default_rng(seed)
        n = scheme.params.ring_degree // 2
        z = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) * 0.5
        ct = scheme.evaluator.mod_down_to(scheme.encrypt(z), 1)
        lr_scheme = CkksScheme(CkksParams(ring_degree=64, num_limbs=8,
                                          scale_bits=30, seed=seed))
        EncryptedLrTrainer(lr_scheme)  # generates its rotation keys
        dataset = Dataset(rng.random(size=(4, 3)),
                          (rng.random(4) > 0.5).astype(float))
        traces = {name: build_reference_trace(name, config)
                  for name in REFERENCE_TRACES}
        for trace in traces.values():  # fill the op-cost memo
            lowering.cost_trace(trace, config)
        return dict(config=config, scheme=scheme, boot=boot, z=z, ct=ct,
                    lr_scheme=lr_scheme, dataset=dataset, traces=traces)

    def boundaries(self):
        return [
            (NttContext, "forward", "fhe.ntt"),
            (NttContext, "inverse", "fhe.ntt"),
            *[(KeySwitcher, attr, "fhe.keyswitch")
              for attr in ("switch", "switch_hoisted", "mod_up",
                           "mod_down")],
            *[(Evaluator, attr, "fhe.evaluator")
              for attr in ("multiply", "rescale", "rotate",
                           "rotate_hoisted")],
            *[(Bootstrapper, stage, f"fhe.bootstrap.{stage}")
              for stage in ("mod_raise", "coeff_to_slot", "eval_mod",
                            "slot_to_coeff")],
            *_lowering_boundaries(),
            *[(module, "run", f"experiments.{key}")
              for key, module in TABLES.items()],
        ]

    def run_pass(self, state, tracer=None) -> PassOutput:
        config, scheme = state["config"], state["scheme"]
        errors = []
        out = scheme.decrypt(state["boot"].bootstrap(state["ct"]))
        boot_err = float(np.max(np.abs(out - state["z"])))
        if not boot_err < 0.05:  # the tier-1 bootstrap test's bound
            errors.append(f"bootstrap decrypt error {boot_err} >= 0.05")

        lr_scheme = state["lr_scheme"]
        block = tracer.span("capture") if tracer else nullcontext()
        with block, capture(lr_scheme, "lr_iteration_captured") as trace:
            trainer = EncryptedLrTrainer(lr_scheme)
            lr_state = trainer.init_state(state["dataset"].num_features)
            trainer.iteration(lr_state, state["dataset"])
        if tracer:
            tracer.count("capture.ops", len(trace))
        costs = {"captured_lr": lowering.cost_trace(trace, config)}
        for name, ref in state["traces"].items():
            costs[name] = lowering.cost_trace(ref, config)
        for name, cost in costs.items():
            if not cost.cycles > 0:
                errors.append(f"lowered {name} has {cost.cycles} cycles")

        tables = {key: module.run() for key, module in TABLES.items()}
        paper = {}
        for key, (model_col, paper_col, rows) in PAPER_ROWS.items():
            for row, err in paper_errors(tables[key], model_col, paper_col,
                                         rows).items():
                paper[f"{key}.{row}"] = err
        if not all(math.isfinite(v) for v in paper.values()):
            errors.append(f"non-finite paper error in {paper}")

        summary = {
            "boot_out": out.tobytes().hex(),
            "capture": trace.to_json(),
            "costs": {name: [c.cycles, c.serial_cycles, c.keys.total_bytes]
                      for name, c in costs.items()},
            "tables": {key: [[r.label, r.values] for r in result.rows]
                       for key, result in tables.items()},
        }
        # 1 bootstrap + 1 capture + 5 lowerings + 4 table drivers.
        return PassOutput(digest(summary), 2 + len(costs) + len(tables),
                          errors, dict(boot_err=boot_err, paper=paper,
                                       costs=costs))

    def finish(self, state, out: PassOutput):
        paper = out.data["paper"]
        metrics = {
            "boot_max_err": out.data["boot_err"],
            "paper_err_geomean": geomean(list(paper.values())),
            "paper_err_max": max(paper.values()),
        }
        return metrics, 0, []

    def layer_metrics(self, state, out: PassOutput):
        boot = out.data["costs"]["bootstrap"]
        metrics = {f"paper_err.{row}": err
                   for row, err in out.data["paper"].items()}
        metrics.update({
            "lowering.bootstrap.sim_ms": boot.seconds * 1e3,
            "lowering.bootstrap.fu_util": boot.report.fu_utilization,
            "lowering.bootstrap.hbm_util": boot.report.hbm_utilization,
            "lowering.bootstrap.key_mb": boot.keys.total_bytes / 1e6,
            "lowering.lr_iteration.sim_ms":
                out.data["costs"]["lr_iteration"].seconds * 1e3,
        })
        return metrics


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------

def serve_summary(report, arrivals: int) -> Dict[str, float]:
    """End-to-end simulated metrics of one ServingReport."""
    stats = report.workload(INTERACTIVE)
    failed = report.rejected_jobs + report.shed_jobs + report.shed_degraded
    return {
        "sim_p50_ms": stats.p50_ms,
        "sim_p99_ms": stats.p99_ms,
        "sim_slo_attainment": report.slo_attainment,
        "sim_failed_frac": failed / arrivals,
        "sim_goodput_jps": report.goodput_jps,
        "sim_p99_samples": stats.jobs,
    }


def serve_errors(report, arrivals: int) -> List[str]:
    errors = conservation_errors(report, arrivals)
    beyond = beyond_p99(report.workload(INTERACTIVE).jobs)
    if beyond < 10:
        errors.append(f"only {beyond} interactive samples beyond p99")
    return errors


def busy_board_s(report, num_devices: int) -> float:
    return report.device_utilization * report.makespan_s * num_devices


def serving_layers(report, sim) -> Dict[str, float]:
    busy = busy_board_s(report, sim.num_devices)
    pcie_s = report.key_bytes_loaded / (sim.host.pcie_gbytes_per_sec * 1e9)
    return {
        "serving.batches": report.batches,
        "serving.mean_batch_size": report.mean_batch_size,
        "policies.rejected": report.rejected_jobs,
        "key_cache.hit_rate": report.key_hit_rate,
        "key_cache.gb_loaded": report.key_bytes_loaded / 1e9,
        "key_cache.load_share": pcie_s / busy if busy else 0.0,
    }


class _Serve:
    """Shared pass/finish logic; subclasses build the scenario."""

    min_passes = 3

    def arrivals(self, state) -> int:
        return len(state["scenario"].generate(state["seed"]))

    def run_pass(self, state, tracer=None) -> PassOutput:
        report, data = self.simulate(state, tracer)
        return PassOutput(digest({"report": asdict(report), **data}), 1, [],
                          dict(report=report, **data))

    def finish(self, state, out: PassOutput):
        arrivals = self.arrivals(state)
        report = out.data["report"]
        metrics = serve_summary(report, arrivals)
        metrics["arrivals"] = arrivals
        return metrics, 0, serve_errors(report, arrivals)

    def boundaries(self):
        return [
            (Scenario, "generate", "arrivals",
             {"on_result": _count("arrivals.jobs")}),
            (ServingSimulator, "run", "serving"),
            (KeyCache, "request", "key_cache"),
            *_lowering_boundaries(),
        ]

    def traced_policy(self, tracer):
        policy = EdfPolicy()
        if tracer is not None:
            tracer.wrap(policy, "enqueue", "policies.enqueue")
            tracer.wrap(policy, "next_batch", "policies.next_batch",
                        on_result=_count("policies.next_batch.dispatched",
                                         lambda batch: int(bool(batch))))
        return policy


class ServeFast(_Serve):
    name = "serve_fast"
    horizon_s = 300.0
    load = 0.6
    ladder = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
    ladder_horizon_s = 60.0
    backlog_margin = 0.05

    def setup(self, seed: int):
        config = FabConfig()
        cold_op_cost_memo()
        sim = ServingSimulator(config)
        scenario = build_slo_scenario(config, duration_s=self.horizon_s,
                                      target_load=self.load)
        slo_ms = scenario.streams[0].slo_ms
        return dict(config=config, sim=sim, scenario=scenario,
                    slo_ms=slo_ms, seed=seed)

    def boundaries(self):
        return [
            (Scenario, "arrivals", "arrivals",
             {"materialize": True,
              "on_result": _count("arrivals.jobs",
                                  lambda chunks: sum(map(len, chunks)))}),
            (fast_engine, "run_fast", "fast_engine"),
            (ServingSimulator, "run", "serving"),
            (SetKeyCache, "request", "key_cache"),
            (KeyCache, "request", "key_cache"),
            *_lowering_boundaries(),
        ]

    def _run(self, state, scenario):
        return state["sim"].run(scenario, seed=state["seed"], policy="edf",
                                engine="fast", arrival_mode="vectorized")

    def simulate(self, state, tracer):
        return self._run(state, state["scenario"]), {}

    def arrivals(self, state, scenario=None) -> int:
        scenario = scenario or state["scenario"]
        return sum(len(chunk) for chunk in scenario.arrivals(
            state["seed"], mode="vectorized"))

    def finish(self, state, out: PassOutput):
        metrics, ops, errors = super().finish(state, out)

        def meets_slo(load: float) -> bool:
            scenario = build_slo_scenario(
                state["config"], duration_s=self.ladder_horizon_s,
                target_load=load)
            report = self._run(state, scenario)
            errors.extend(conservation_errors(
                report, self.arrivals(state, scenario)))
            return (report.workload(INTERACTIVE).p99_ms <= state["slo_ms"]
                    and report.makespan_s <= self.ladder_horizon_s
                    * (1 + self.backlog_margin))

        metrics["sim_capacity_load"], rungs = capacity_load(self.ladder,
                                                            meets_slo)
        return metrics, ops + rungs, errors

    def layer_metrics(self, state, out: PassOutput):
        report = out.data["report"]
        metrics = serving_layers(report, state["sim"])
        del metrics["serving.batches"], metrics["serving.mean_batch_size"]
        metrics["fast_engine.batches"] = report.batches
        return metrics


class ServeDes(_Serve):
    name = "serve_des"
    horizon_s = 400.0
    load = 0.7  # of cold-service capacity: every key misses
    tenants = 200
    cached_working_sets = 3

    def setup(self, seed: int):
        config = FabConfig()
        cold_op_cost_memo()
        classes = build_job_classes(config)
        cache = self.cached_working_sets * max(
            c.key_bytes for c in classes.values())
        sim = ServingSimulator(config, num_devices=8, key_cache_bytes=cache)
        host = sim.host
        inference = classes[INTERACTIVE]
        slo_ms = default_interactive_slo_ms(inference, config, host=host)
        streams = []
        for name, prefix in ((INTERACTIVE, "user"),
                             ("lr_training", "trainer"),
                             ("analytics", "org")):
            job_class = classes[name]
            cold_s = (host.kernel_launch_overhead_s
                      + key_load_seconds(host, job_class.key_bytes)
                      + job_class.seconds(config))
            rate = self.load / 3 * sim.num_devices / cold_s
            streams.append(Stream(
                job_class, rate, num_tenants=self.tenants,
                tenant_prefix=prefix,
                slo_ms=slo_ms if name == INTERACTIVE else None))
        scenario = Scenario("des_mix", self.horizon_s, streams)
        return dict(config=config, sim=sim, scenario=scenario, seed=seed)

    def simulate(self, state, tracer):
        report = state["sim"].run(state["scenario"], seed=state["seed"],
                                  policy=self.traced_policy(tracer))
        return report, {}

    def layer_metrics(self, state, out: PassOutput):
        return serving_layers(out.data["report"], state["sim"])


class ServeChaos(_Serve):
    name = "serve_chaos"
    horizon_s = 30.0
    # Mild enough that no seed tips the pool into overload: at load 0.3,
    # mtbf 2 s, or a scaler targeting 0.7 utilization, some seeds hit a
    # fault cluster on a shrunken pool and reject up to 10% of the jobs,
    # so the pass cost follows the seed rather than the code.
    load = 0.2
    faults = "poisson:mtbf=4.0,mttr=0.02"
    retry = "backoff:base=0.005,jitter=0.25"
    autoscale = ("predictive:window=0.1,horizon=0.05,target=0.6,"
                 "cooldown=0.02,avail=1+spare:n=1")
    window_s = 0.1

    def setup(self, seed: int):
        config = FabConfig()
        cold_op_cost_memo()
        sim = ServingSimulator(config, num_devices=8)
        scenario = build_slo_scenario(
            config, duration_s=self.horizon_s, target_load=self.load,
            interactive_fraction=1.0).with_arrivals("diurnal:amplitude=0.9")
        return dict(config=config, sim=sim, scenario=scenario, seed=seed)

    def boundaries(self):
        return [
            *[b for b in super().boundaries() if b[1] != "run"],
            (membership, "run_with_ledger", "serving"),
            *[(PoolLedger, attr, "membership")
              for attr in ("transition", "evict", "close")],
        ]

    def simulate(self, state, tracer):
        sim = state["sim"]
        recorder = MetricsRecorder(window_s=self.window_s)
        scale = make_scale_policy(self.autoscale)
        if tracer is not None:
            for hook in RECORDER_HOOKS:
                tracer.wrap(recorder, hook, "obs.recorder")
            tracer.wrap(scale, "decide", "autoscaler")
        ledger = PoolLedger(sim.num_devices)
        report = membership.run_with_ledger(
            sim, state["scenario"], seed=state["seed"],
            policy=self.traced_policy(tracer), recorder=recorder,
            faults=self.faults, retry=self.retry, autoscale=scale,
            ledger=ledger)
        return report, dict(recorder=recorder.summary(),
                            ledger_seconds=ledger.state_seconds(),
                            ledger_closed_at=ledger.closed_at,
                            ledger_transitions=ledger.transitions)

    def finish(self, state, out: PassOutput):
        metrics, ops, errors = super().finish(state, out)
        report, data = out.data["report"], out.data
        recorded = data["recorder"]["board_state_seconds"]
        errors.extend(board_second_errors(
            report, recorded, data["ledger_seconds"],
            state["sim"].num_devices, data["ledger_closed_at"]))
        metrics["board_s_per_good_job"] = report.board_s_per_good_job
        # Known discrepancy, reported rather than gated: the report bills
        # a parked board until the control loop's last capacity flush,
        # while the ledger parks it at its drain time.
        metrics["board_s_unreconciled"] = unreconciled_board_s(
            report, recorded)
        return metrics, ops, errors

    def layer_metrics(self, state, out: PassOutput):
        report, sim = out.data["report"], state["sim"]
        metrics = serving_layers(report, sim)
        states = out.data["recorder"]["board_state_seconds"]
        for name in ("active", "draining", "parked", "failed", "repairing"):
            metrics[f"membership.board_s.{name}"] = states.get(name, 0.0)
        metrics["membership.board_s.unreconciled"] = unreconciled_board_s(
            report, states)
        metrics["membership.transitions"] = sum(
            out.data["ledger_transitions"].values())
        busy = busy_board_s(report, sim.num_devices)
        metrics.update({
            "faults.board_faults": report.board_faults,
            "faults.failures": report.failures,
            "faults.retries": report.retries,
            "faults.wasted_share": (report.wasted_service_s / busy
                                    if busy else 0.0),
            "autoscaler.resize_events": report.resize_events,
        })
        return metrics


def unreconciled_board_s(report, state_seconds) -> float:
    """Provisioned board-seconds the report bills beyond the ledger's
    in-service states (active, draining, repairing)."""
    provisioned = sum(state_seconds.get(s, 0.0)
                      for s in ("active", "draining", "repairing"))
    return report.board_seconds - provisioned


RECORDER_HOOKS = tuple(name for name, value in vars(Recorder).items()
                       if callable(value) and not name.startswith("_"))

WORKLOADS = {w.name: w for w in (PaperModel(), ServeFast(), ServeDes(),
                                 ServeChaos())}
