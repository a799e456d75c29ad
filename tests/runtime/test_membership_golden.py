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

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _golden_grid import MEMBERSHIP_PATH, membership_runs, report_dict  # noqa: E402


def _golden():
    with open(MEMBERSHIP_PATH) as fh:
        return json.load(fh)


def _canonical(value) -> str:
    # float repr round-trips exactly, and NaN == NaN as text.
    return json.dumps(value, sort_keys=True)


GOLDEN = _golden()
POINTS = list(membership_runs())


@pytest.mark.parametrize("key,kwargs", POINTS, ids=[key for key, _ in POINTS])
def test_report_matches_golden(key, kwargs):
    assert key in GOLDEN, f"no golden entry for {key}; regenerate the grid"
    got = report_dict(kwargs)
    want = GOLDEN[key]
    assert sorted(got) == sorted(want), f"{key}: report fields changed"
    mismatched = {
        field: (want[field], got[field])
        for field in want
        if _canonical(got[field]) != _canonical(want[field])
    }
    assert not mismatched, (
        f"{key}: membership report drifted from the golden on "
        f"{sorted(mismatched)}: {mismatched}"
    )


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
