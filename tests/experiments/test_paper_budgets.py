"""Per-row error budgets against the paper's FAB rows (Tables 5-8).

The table drivers' own tests assert orderings only.  This pins every
FAB row the benchmark scores (``perfbench/checks.PAPER_ROWS``) to an
explicit budget on ``|model / paper - 1|``, scored by the benchmark's
own ``paper_errors``, so a change that moves a model number fails here
instead of only shifting a traced benchmark metric.

Budgets only ever tighten.  Each sits just above the row's error when
it was set; a change that closes a gap lowers its budget with a cause
stated from the paper's parameters, and a budget is never raised to let
a change through.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.experiments import (table5_basic_ops, table6_heax,
                               table7_bootstrap, table8_lr)

_CHECKS = Path(__file__).resolve().parents[2] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

TABLES = {"table5": table5_basic_ops, "table6": table6_heax,
          "table7": table7_bootstrap, "table8": table8_lr}

BUDGETS = {
    ("table5", "Add"): 0.025,
    ("table5", "Mult"): 0.023,
    ("table5", "Rescale"): 0.468,
    ("table5", "Rotate"): 0.062,
    ("table6", "NTT"): 0.532,
    ("table6", "Mult"): 0.599,
    ("table7", "FAB"): 0.242,
    ("table8", "FAB-1"): 0.108,
    ("table8", "FAB-2"): 0.069,
}


@pytest.fixture(scope="module")
def errors():
    out = {}
    for key, (model_col, paper_col, rows) in checks.PAPER_ROWS.items():
        result = TABLES[key].run()
        for row, err in checks.paper_errors(result, model_col, paper_col,
                                            rows).items():
            out[(key, row)] = err
    return out


def test_every_scored_row_has_a_budget(errors):
    assert set(errors) == set(BUDGETS)


@pytest.mark.parametrize("row", sorted(BUDGETS), ids="{0[0]}.{0[1]}".format)
def test_row_within_budget(errors, row):
    assert errors[row] < BUDGETS[row], (
        f"{row}: |model/paper - 1| = {errors[row]:.4f} exceeds its budget "
        f"{BUDGETS[row]}")
