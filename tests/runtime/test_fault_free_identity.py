"""Fault-free runs are bit-identical to the pre-fault engine.

The fault subsystem forked the DES loop rather than branching inside
it precisely so this suite can exist: every golden grid point (both
engines x policies x arrival processes x striping, captured from the
tree *before* the fault machinery landed) must reproduce float for
float.  New always-computed report fields (``goodput_jps``, the fault
counters) are allowed to appear; every golden key must match exactly.

Regenerate (only after an intentional semantic change)::

    PYTHONPATH=src python tests/runtime/_golden_grid.py
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _golden_grid import (DATA_PATH, FAULT_FREE_FIELDS,  # noqa: E402
                          assert_matches_golden, golden_runs, load_golden,
                          report_dict)

GOLDEN = load_golden(DATA_PATH)
POINTS = list(golden_runs())


@pytest.mark.parametrize(
    "key,kwargs", POINTS, ids=[key for key, _ in POINTS])
def test_report_matches_golden(key, kwargs):
    assert_matches_golden(GOLDEN, key, report_dict(kwargs))


def test_grid_covers_both_engines_and_all_points():
    engines = {key.split("/")[2] for key, _ in POINTS}
    assert engines == {"des", "fast"}
    assert len(POINTS) == len(GOLDEN)


def test_regeneration_writes_the_pinned_fields_only():
    # The regeneration command projects every report onto these fields,
    # so re-running it on an unchanged tree rewrites the file unchanged.
    assert all(set(entry) == set(FAULT_FREE_FIELDS)
               for entry in GOLDEN.values())


def test_new_fields_are_inert_when_fault_free():
    # The report grew fault fields; on a fault-free run they must all
    # be zero (and absent from the golden, which predates them).
    key, kwargs = POINTS[0]
    got = report_dict(kwargs)
    for field in ("board_faults", "failures", "retries", "shed_jobs",
                  "shed_degraded", "degraded_jobs", "wasted_service_s"):
        assert field not in GOLDEN[key]
        assert got[field] == 0
