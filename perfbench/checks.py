"""Output checks and scorers shared by the benchmark workloads.

Everything here is a pure function of a workload's outputs, so the unit
tests in ``perfbench/tests`` drive it with hand-made inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: FAB rows of the paper's Tables 5-8: experiment id -> (model column,
#: paper column, row labels or None for every row).
PAPER_ROWS: Dict[str, Tuple[str, str, Optional[Tuple[str, ...]]]] = {
    "table5": ("fab_model_ms", "fab_paper_ms", None),
    "table6": ("fab_model_ops", "fab_paper_ops", None),
    "table7": ("model_us", "paper_us", ("FAB",)),
    "table8": ("model_s", "paper_s", ("FAB-1", "FAB-2")),
}


def paper_errors(result, model_key: str, paper_key: str,
                 rows: Optional[Sequence[str]] = None) -> Dict[str, float]:
    """``|model / paper - 1|`` per row of an ``ExperimentResult``."""
    out = {}
    for row in result.rows:
        if rows is None or row.label in rows:
            out[row.label] = abs(row[model_key] / row[paper_key] - 1.0)
    if rows is not None and set(out) != set(rows):
        raise KeyError(f"{result.experiment_id}: missing rows "
                       f"{sorted(set(rows) - set(out))}")
    return out


def geomean(values: Sequence[float]) -> float:
    if any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def capacity_load(ladder: Sequence[float],
                  meets_slo: Callable[[float], bool]) -> Tuple[float, int]:
    """Highest rung of an ascending ``ladder`` whose run meets the SLO.

    Binary search: valid because tail latency and backlog only grow
    with load, so the passing rungs form a prefix.  Returns the rung
    (0.0 when even the lowest fails) and how many rungs were simulated.
    """
    lo, hi = 0, len(ladder)  # rungs [0, lo) pass, [hi, end) fail
    evaluated = 0
    while lo < hi:
        mid = (lo + hi) // 2
        evaluated += 1
        if meets_slo(ladder[mid]):
            lo = mid + 1
        else:
            hi = mid
    return (ladder[lo - 1] if lo else 0.0), evaluated


def conservation_errors(report, arrivals: int) -> List[str]:
    """Every arrival is done, rejected, shed or shed-degraded — once."""
    accounted = (report.jobs_done + report.rejected_jobs
                 + report.shed_jobs + report.shed_degraded)
    if accounted != arrivals:
        return [f"job conservation: {arrivals} arrivals but "
                f"{report.jobs_done} done + {report.rejected_jobs} "
                f"rejected + {report.shed_jobs} shed + "
                f"{report.shed_degraded} shed-degraded = {accounted}"]
    return []


def board_second_errors(report, recorder_seconds: Mapping[str, float],
                        ledger_seconds: Mapping[str, float],
                        num_boards: int, closed_at: float,
                        rel: float = 1e-9) -> List[str]:
    """Board-second conservation on a ledger run.

    The recorder's per-state integrals must equal the ledger's, they
    must partition ``num_boards * elapsed``, and the provisioned bill
    cannot exceed the whole pool's elapsed time.
    """
    errors = []
    for state in set(recorder_seconds) | set(ledger_seconds):
        got = recorder_seconds.get(state, 0.0)
        want = ledger_seconds.get(state, 0.0)
        if not math.isclose(got, want, rel_tol=rel, abs_tol=1e-12):
            errors.append(f"board-seconds[{state}]: recorder {got!r} != "
                          f"ledger {want!r}")
    total = sum(recorder_seconds.values())
    if not math.isclose(total, num_boards * closed_at, rel_tol=rel):
        errors.append(f"board-seconds: states sum to {total!r}, not "
                      f"{num_boards} x {closed_at!r}")
    if not 0.0 < report.board_seconds <= num_boards * closed_at * (1 + rel):
        errors.append(f"board_seconds {report.board_seconds!r} outside "
                      f"(0, {num_boards} x {closed_at!r}]")
    return errors


def beyond_p99(samples: int) -> int:
    """Samples strictly beyond the nearest-rank p99 of ``samples``."""
    return samples - math.ceil(0.99 * samples)


def digest(obj) -> str:
    """Stable short hash of a JSON-able value."""
    blob = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
