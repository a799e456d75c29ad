"""Schema checks for the JSON sweep artifacts CI uploads.

Every sweep in the registry (:data:`repro.experiments.SWEEPS`) writes
``<name>.json``, and every such artifact must carry a provenance stamp
(seed + config digest + git revision) and its headline keys, so a
downloaded artifact is self-describing and the dashboards that consume
them never key-error on a renamed field.  The key sets below are
pinned by hand on purpose: a renamed field must fail here.

Two validation paths share one schema table:

* each test generates a minimal in-process report and validates its
  ``to_dict()`` — the schema regression that runs everywhere;
* when ``SWEEP_ARTIFACT_DIR`` is set (the CI schema-check step points
  it at the directory the perf-smoke steps wrote), the actual
  uploaded files are validated too.
"""

import json
import os

import pytest

from repro.experiments import SWEEPS

#: Provenance keys :func:`repro.obs.provenance.provenance` stamps.
PROVENANCE_KEYS = {"seed", "config_digest", "git"}

#: sweep name -> (required top-level keys, headline keys).
KEYS = {
    "serve_sweep": (
        {
            "slo_p99_ms",
            "duration_s",
            "seed",
            "provenance",
            "grid_points",
            "feasible_points",
            "best",
            "outcomes",
        },
        set(),
    ),
    "slo_sweep": (
        {
            "policies",
            "duration_s",
            "seed",
            "provenance",
            "price",
            "grid_points",
            "headline",
            "pareto",
            "outcomes",
        },
        {"edf_vs_fifo_high_load", "deferrable_vs_fifo"},
    ),
    "fault_sweep": (
        {
            "retries",
            "mttr_s",
            "duration_s",
            "seed",
            "arrivals",
            "slo_scale",
            "provenance",
            "grid_points",
            "headline",
            "resilience_frontier",
            "outcomes",
        },
        {"backoff_vs_none"},
    ),
    "autoscale_sweep": (
        {
            "policies",
            "duration_s",
            "target_load",
            "seed",
            "provenance",
            "grid_points",
            "headline",
            "savings",
            "outcomes",
        },
        {"autoscale_vs_static"},
    ),
    "resilience_autoscale_sweep": (
        {
            "mechanisms",
            "faults",
            "retry",
            "duration_s",
            "target_load",
            "seed",
            "provenance",
            "grid_points",
            "headline",
            "outcomes",
        },
        {"combined_vs_single"},
    ),
}

#: artifact file name -> (required top-level keys, headline keys), one
#: entry per registered sweep.
SCHEMAS = {f"{sweep.name}.json": KEYS[sweep.name] for sweep in SWEEPS.values()}

REACTIVE = "reactive:low=0.3,high=0.85,cooldown=0.02"
DIURNAL = "diurnal:amplitude=0.9"

#: Per-sweep run_sweep keywords for a one-point in-process report.
TINY_GRIDS = {
    "serve_sweep": dict(
        devices=(4,), cache_fractions=(0.25,), tenants=(2,), loads=(0.8,)
    ),
    "slo_sweep": dict(devices=(4,), loads=(0.8,), mixes=(0.6,)),
    "fault_sweep": dict(retries=("none", "backoff"), devices=(4,), mtbfs=(0.1,)),
    "autoscale_sweep": dict(
        policies=("static", REACTIVE), arrivals=(("diurnal", DIURNAL),)
    ),
    "resilience_autoscale_sweep": {},
}

#: The same grids as command-line flags.
TINY_FLAGS = {
    "serve_sweep": "--devices 4 --cache-fracs 0.25 --tenants 2 --loads 0.8",
    "slo_sweep": "--devices 4 --loads 0.8 --mixes 0.6",
    "fault_sweep": "--retries none backoff --devices 4 --mtbfs 0.1",
    "autoscale_sweep": f"--policies static {REACTIVE} --arrivals {DIURNAL}",
    "resilience_autoscale_sweep": "",
}


def validate(name, data):
    required, headline_keys = SCHEMAS[name]
    missing = required - set(data)
    assert not missing, f"{name} missing top-level keys: {missing}"
    stamp = data["provenance"]
    assert stamp is not None, f"{name} has no provenance stamp"
    missing = PROVENANCE_KEYS - set(stamp)
    assert not missing, f"{name} provenance missing: {missing}"
    if headline_keys:
        missing = headline_keys - set(data["headline"])
        assert not missing, f"{name} headline missing: {missing}"
    assert isinstance(data["grid_points"], int)
    assert data["grid_points"] >= 1
    assert isinstance(data["outcomes"], list)
    assert data["outcomes"], f"{name} carries no outcomes"


def test_every_registered_sweep_has_a_schema():
    assert set(KEYS) == {sweep.name for sweep in SWEEPS.values()}


@pytest.fixture(scope="module")
def tiny_reports():
    """One minimal report per registered sweep, generated in-process."""
    return {
        f"{sweep.name}.json": sweep.run_sweep(
            duration_s=0.2, workers=1, **TINY_GRIDS[sweep.name]
        )
        for sweep in SWEEPS.values()
    }


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_generated_artifact_matches_schema(tiny_reports, name):
    validate(name, tiny_reports[name].to_dict())


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_artifact_json_roundtrip(tiny_reports, name, tmp_path):
    path = tmp_path / name
    tiny_reports[name].save_json(str(path))
    validate(name, json.loads(path.read_text()))


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_cli_writes_the_api_artifact(tiny_reports, name, tmp_path, capsys):
    """Each command maps its flags onto run_sweep: the artifact it
    writes equals the in-process report's."""
    sweep = next(s for s in SWEEPS.values() if f"{s.name}.json" == name)
    path = tmp_path / name
    flags = TINY_FLAGS[sweep.name].split()
    args = flags + ["--duration", "0.2", "--workers", "1", "--json", str(path)]
    assert sweep.cli(args) == 0
    assert capsys.readouterr().out.endswith(f"sweep written to {path}\n")
    expected = json.loads(json.dumps(tiny_reports[name].to_dict()))
    assert json.loads(path.read_text()) == expected


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_uploaded_artifact_matches_schema(name):
    """Validate the files the CI perf-smoke steps actually wrote."""
    directory = os.environ.get("SWEEP_ARTIFACT_DIR")
    if not directory:
        pytest.skip("SWEEP_ARTIFACT_DIR not set (CI schema step)")
    path = os.path.join(directory, name)
    assert os.path.exists(path), (
        f"CI produced no {name}; the schema step expects every sweep "
        "artifact present"
    )
    with open(path, "r", encoding="utf-8") as fh:
        validate(name, json.load(fh))
