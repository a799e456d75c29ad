"""Malformed CLI specs die with one-line actionable errors.

A typo in ``--arrivals``/``--policy``/``--faults``/``--retry`` must
produce ``parser.error`` output — from ``serve`` and from every sweep
command alike (exit code 2, a single ``error:`` line
naming the flag and what is accepted) — never a traceback.  The spec
parsers themselves raise :class:`repro.runtime.SpecError` (a
``ValueError``), one shared vocabulary across arrivals, policies,
faults, and retries.
"""

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.fault_sweep import main as run_fault_sweep
from repro.runtime import SpecError, make_policy, make_process
from repro.runtime.cli import run_serve
from repro.runtime.specs import parse_spec_kwargs, take_spec_options


def _error_line(capsys, excinfo):
    assert excinfo.value.code == 2  # argparse's usage-error exit
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1, f"expected one error line, got: {err!r}"
    return lines[0]


class TestSpecHelpers:
    def test_parse_spec_kwargs(self):
        assert parse_spec_kwargs("", what="x") == {}
        assert parse_spec_kwargs("a=1,b=2.5", what="x") == {
            "a": 1.0, "b": 2.5}

    def test_parse_spec_kwargs_bad_item(self):
        with pytest.raises(SpecError, match="key=value"):
            parse_spec_kwargs("a", what="arrival")
        with pytest.raises(SpecError, match="number"):
            parse_spec_kwargs("a=fast", what="arrival")

    def test_take_spec_options_lists_accepted(self):
        kwargs = {"rate": 2.0, "buzz": 1.0}
        with pytest.raises(SpecError) as excinfo:
            take_spec_options(kwargs, "spec", what="arrival process",
                              rate=1.0)
        assert "buzz" in str(excinfo.value)
        assert "rate" in str(excinfo.value)

    def test_spec_error_is_value_error(self):
        # Pre-existing `except ValueError` call sites keep working.
        assert issubclass(SpecError, ValueError)
        with pytest.raises(ValueError):
            make_process("warp:speed=9", rate_per_s=1.0)
        with pytest.raises(SpecError):
            make_policy("lifo")


class TestServeCliErrors:
    def test_bad_arrivals_spec_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_serve(["--arrivals", "warp:speed=9"])
        line = _error_line(capsys, excinfo)
        assert "--arrivals" in line
        assert "warp" in line

    def test_bad_arrivals_option_names_accepted(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_serve(["--arrivals", "mmpp:burts=3"])
        line = _error_line(capsys, excinfo)
        assert "burts" in line
        assert "burst" in line  # the accepted spelling is suggested

    def test_bad_engine_choice_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_serve(["--engine", "warp"])
        line = _error_line(capsys, excinfo)
        assert "--engine" in line

    def test_bad_policy_choice_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_serve(["--policy", "lifo"])
        line = _error_line(capsys, excinfo)
        assert "--policy" in line

    def test_bad_faults_spec_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_serve(["--faults", "meteor:rate=1"])
        line = _error_line(capsys, excinfo)
        assert "--faults" in line
        assert "meteor" in line

    def test_bad_retry_spec_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_serve(["--faults", "poisson:mtbf=1", "--retry",
                       "psychic"])
        line = _error_line(capsys, excinfo)
        assert "--retry" in line

    def test_retry_without_faults_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_serve(["--retry", "backoff"])
        line = _error_line(capsys, excinfo)
        assert "--faults" in line

    def test_faults_on_fast_engine_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_serve(["--faults", "poisson:mtbf=1", "--engine",
                       "fast"])
        line = _error_line(capsys, excinfo)
        assert "des" in line


class TestFaultSweepCliErrors:
    def test_bad_retry_spec_is_one_line(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_fault_sweep(["--retries", "none", "psychic"])
        line = _error_line(capsys, excinfo)
        assert "--retries" in line

    def test_bad_mtbf_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_fault_sweep(["--mtbfs", "-1"])
        _error_line(capsys, excinfo)


SWEEP_COMMANDS = ("serve-sweep", "slo-sweep", "fault-sweep",
                  "autoscale-sweep", "resilience-autoscale-sweep")


class TestSweepCliErrors:
    @pytest.mark.parametrize("spec", ("bogus", "replay:/missing.jsonl"))
    @pytest.mark.parametrize("command", SWEEP_COMMANDS)
    def test_bad_arrivals_spec_is_one_line(self, capsys, command, spec):
        # Checked before any grid point runs: a spec typo or a missing
        # replay file is a usage error, not a traceback mid-sweep.
        with pytest.raises(SystemExit) as excinfo:
            repro_main([command, "--arrivals", spec, "--workers", "1",
                        "--json", ""])
        line = _error_line(capsys, excinfo)
        assert "--arrivals" in line
