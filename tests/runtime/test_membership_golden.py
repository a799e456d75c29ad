"""Membership runs are pinned float for float.

The fault-free suite pins the fixed pool; this one pins the DES runs
whose pool membership moves — faults only, autoscaling only, and both
under the ledger's arbitration rules — each under ``fifo`` and
``edf`` at two seeds, plus the EDF-under-faults input that once never
returned.  Every report field must match the golden
exactly (NaN percentiles of a class with no completions included), so
drift anywhere on the membership path fails a named grid point.

Regenerate (only after an intentional semantic change)::

    PYTHONPATH=src python tests/runtime/_golden_grid.py membership
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _golden_grid import (  # noqa: E402
    MEMBERSHIP_PATH,
    assert_matches_golden,
    load_golden,
    membership_runs,
    report_dict,
)

GOLDEN = load_golden(MEMBERSHIP_PATH)
POINTS = list(membership_runs())


@pytest.mark.parametrize("key,kwargs", POINTS, ids=[key for key, _ in POINTS])
def test_report_matches_golden(key, kwargs):
    got = report_dict(kwargs)
    assert_matches_golden(GOLDEN, key, got)
    assert sorted(got) == sorted(GOLDEN[key]), f"{key}: report fields changed"


def test_grid_exercises_every_mechanism():
    # 3 mechanisms x 2 policies x 2 seeds, plus the EDF liveness point.
    assert len(POINTS) == len(GOLDEN) == 13
    for key, report in GOLDEN.items():
        mechanism = key.split("/")[0]
        if "faults" in mechanism:
            assert report["board_faults"] > 0, key
            assert report["retries"] > 0, key
        if "autoscale" in mechanism:
            assert report["scale_downs"] > 0, key
