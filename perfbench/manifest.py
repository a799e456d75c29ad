"""Generate ``BENCHMARK.json`` and ``perfbench/manifest.json``.

``BENCHMARK.json`` has a fixed schema (command, paths, run length,
workloads, gated end-to-end metrics, per-layer metrics).  Everything
else the benchmark records per workload lives in ``manifest.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import spec

RUN_SECONDS = 20


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": record["why"]}
                      for name, record in spec.WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": spec.END_TO_END[name][0],
             "better": spec.END_TO_END[name][1], "bound": bound}
            for name, bound in spec.GATED.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in spec.PER_LAYER.items()],
    }


def manifest_json(provenance: dict) -> dict:
    workloads = {}
    for name, record in spec.WORKLOADS.items():
        metrics = {m: {"unit": unit, "better": better, "clock": clock,
                       "definition": definition}
                   for m, (unit, better, clock, where, definition)
                   in spec.END_TO_END.items() if name in where}
        predictions = {layer: moves.get(name, moves.get("serve_*"))
                       for layer, moves in spec.PREDICTIONS
                       if name in moves
                       or (name.startswith("serve_") and "serve_*" in moves)}
        workloads[name] = {
            **record,
            "seed_argument": "--seed",
            "end_to_end": metrics,
            "exact_for_seed": sorted(m for m, v in metrics.items()
                                     if v["clock"] != "host"),
            "host_noise": sorted(m for m, v in metrics.items()
                                 if v["clock"] == "host"),
            "predictions": predictions,
        }
    return {"open_loop": spec.OPEN_LOOP_NOTE, "workloads": workloads,
            "provenance": provenance}


def write_manifest(root: Path) -> None:
    from repro.core import FabConfig
    from repro.obs import provenance

    (root / "BENCHMARK.json").write_text(
        json.dumps(benchmark_json(), indent=2) + "\n")
    stamp = provenance(config=FabConfig(), benchmark="perfbench")
    (root / "perfbench" / "manifest.json").write_text(
        json.dumps(manifest_json(stamp), indent=2) + "\n")
