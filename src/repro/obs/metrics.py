"""Windowed time-series metrics of a serving run.

:class:`MetricsRecorder` buckets the recorder event stream into
fixed-width time windows and reports, per window:

* **per-board utilization** — busy seconds apportioned exactly across
  the windows each batch's service interval overlaps, so each board's
  utilization series integrates back to its ``DeviceState.busy_s``
  (the hypothesis property in ``tests/obs/test_metrics.py``);
* **queue depth** — the time-weighted mean of pending jobs, total and
  per (class, tenant) queue;
* **key-cache behaviour** — bytes loaded per window plus the rolling
  pool-wide hit rate, resident bytes, and cumulative evicted bytes
  (from :meth:`repro.runtime.serving.KeyCache.counters` snapshots);
* **SLO attainment** — deadline-carrying jobs finishing (or rejected)
  in the window, met/total, plus the rolling attainment;
* **price** — the mean :class:`PriceSignal` level over the window and
  the cumulative price-units spent.

The recorder is columnar.  A hook does no window arithmetic: it
appends the event's raw columns to typed buffers (:mod:`array`) —
``(t, value)`` for a point event such as a batch's jobs or cost,
``(t0, t1, scale)`` for a busy or queue-depth span, and for a
key-cache snapshot one raw row per gang member (its board and six
counters).  Every :data:`FLUSH_EVENTS` rows, at ``run_end``, and
before any read, the buffers are bucketed into float64 window arrays
in vectorized passes: :func:`window_indices` is :func:`window_index`
over an array, each span expands into its window segments with the
same float expressions as a window-by-window walk, and ``np.add.at``
adds each window's terms in event order.  The pool-wide cache
aggregate of each snapshot is derived there too, from per-board
deltas summed in int64 (exact, like the per-event sum).  So every
series is bit-identical to adding event by event (the per-event
oracle property in ``tests/obs/test_metrics_oracle.py``), and memory
stays O(windows) however many events a run records.

The artifact (:meth:`MetricsRecorder.save`) is plain JSON; ``repro
timeline`` renders it as a terminal summary
(:func:`repro.obs.render.render_metrics`).
"""

from __future__ import annotations

import json
import math
from array import array
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .recorder import CacheCounters, MemberLoad, Recorder

_CACHE_KEYS = ("hits", "misses", "bytes_loaded", "evictions",
               "bytes_evicted", "resident_bytes")
_NO_STATS = (0,) * len(_CACHE_KEYS)

#: Buffered rows (points or spans) that trigger bucketing into the
#: window arrays: memory stays O(windows) however long the run.
FLUSH_EVENTS = 4096

# Point series: one row of the point-window array each.
(_JOBS, _COST, _SLO_MET, _SLO_TOTAL, _REJECTS, _LOAD_BYTES, _FAULTS,
 _REPAIRS, _RESIZES, _LEDGER) = range(10)
_POINT_SERIES = 10
# Sample-and-hold series: the last level reported in a window wins.
_HEALTHY, _PROVISIONED = range(2)
_HOLD_SERIES = 2
# Span row of the total queue depth (boards and queues follow).
_QUEUE_ROW = 0


def window_index(t: float, window_s: float) -> int:
    """The window containing instant ``t``, boundary-exact.

    Naive ``int(t / window_s)`` misassigns exact boundary instants:
    IEEE-754 makes ``0.3 / 0.1 == 2.9999999999999996``, so an event at
    ``t == 3 * window_s`` lands in window 2 instead of the window it
    opens.  The quotient of a true boundary ``k * w`` is within a
    couple of ulps of ``k``, so a quotient within ``256 * ulp`` below
    the next integer is treated as that integer.  The tolerance is
    relative (ulp-scaled): it absorbs the rounding of ``(k*w)/w`` at
    any magnitude while staying vanishingly small next to the window
    width itself.
    """
    if t <= 0.0:
        return 0
    q = t / window_s
    i = int(q)
    if (i + 1) - q <= 256.0 * math.ulp(q):
        i += 1
    return i


def window_indices(t: np.ndarray, window_s: float) -> np.ndarray:
    """:func:`window_index` over an array of instants, element for
    element.

    The quotient, the truncation and the ``256 * ulp`` bump run in the
    same float64 arithmetic as the scalar form (``np.spacing`` is
    ``math.ulp`` for the non-negative quotients seen here), and
    ``t <= 0`` maps to window 0.
    """
    q = t / window_s
    index = q.astype(np.int64)
    index += (index + 1) - q <= 256.0 * np.spacing(q)
    index[t <= 0.0] = 0
    return index


def _last_occurrence(keys: np.ndarray) -> np.ndarray:
    """Positions of each distinct key's last occurrence."""
    _, from_end = np.unique(keys[::-1], return_index=True)
    return len(keys) - 1 - from_end


def _fit(values: np.ndarray, shape: Tuple[int, ...],
         fill: Any = 0) -> np.ndarray:
    """``values`` grown (never shrunk) to ``shape``, padded with
    ``fill``."""
    if values.shape == shape:
        return values
    out = np.full(shape, fill, dtype=values.dtype)
    out[tuple(slice(n) for n in values.shape)] = values
    return out


def _sum(values: np.ndarray) -> float:
    """Left-to-right sum: what built-in ``sum`` returns for
    ``values.tolist()``, including int 0 for an empty array.
    ``np.add.accumulate`` adds in order; ``np.sum`` adds pairwise and
    would round differently."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0


def _padded(values: np.ndarray, count: int) -> List[float]:
    out = values[:count].tolist()
    return out + [0.0] * (count - len(out))


class MetricsRecorder(Recorder):
    """Collect windowed time-series from one simulator run."""

    def __init__(self, window_s: float = 0.05,
                 meta: Optional[Mapping[str, Any]] = None,
                 track_queues: bool = True):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        self._meta: Dict[str, Any] = dict(meta or {})
        self._track_queues = track_queues
        self._run_info: Dict[str, Any] = {}
        self._price: Optional[Any] = None
        # Buffered event columns (see _new_buffers).  A hook that
        # buffers a level or a snapshot also buffers a point, so the
        # point, span and snapshot-member buffers bound them all.
        self._new_buffers()
        # Window arrays, column capacity doubled on demand.
        self._cap = 0
        self._points = np.zeros((_POINT_SERIES, 0))
        #: Windows each point series has touched (its list length).
        self._point_len = np.zeros(_POINT_SERIES, dtype=np.int64)
        self._areas = np.zeros((1, 0))
        self._row_flushed = np.zeros(1, dtype=bool)
        self._held = np.full((_HOLD_SERIES, 0), np.nan)
        self._snaps = np.zeros((0, len(_CACHE_KEYS)), dtype=np.int64)
        self._snapped = np.zeros(0, dtype=bool)
        # Span rows: the total queue depth, then boards and
        # "class/tenant" queues as they first appear.
        self._rows = 1
        self._board_rows: Dict[int, int] = {}
        self._queue_rows: Dict[Tuple[str, str], int] = {}
        self._queue_names: Dict[str, int] = {}
        # Pool-aggregate key-cache counters, carried across flushes:
        # each board's last snapshot (a row per board index) and
        # their running (exact, integer) sum.
        self._cache_last = np.zeros((0, len(_CACHE_KEYS)), dtype=np.int64)
        self._cache_agg = np.zeros(len(_CACHE_KEYS), dtype=np.int64)
        # queue-depth integration state: the last sample's total and
        # nonzero (row, depth) pairs, open since _q_last_t.
        self._q_last_t = 0.0
        self._q_last_total = 0
        self._q_last: Sequence[Tuple[int, int]] = ()
        self.peak_queue_depth = 0
        self._fault_count = 0
        self._repair_count = 0
        self._min_healthy: Optional[int] = None
        self._resize_count = 0
        self._scale_ups = 0
        self._scale_downs = 0
        self._min_provisioned: Optional[int] = None
        # membership-ledger state: transition counts keyed "old->new",
        # and a per-state board-seconds integral reconstructed from
        # the transition stream (every board starts active at t=0).
        self._ledger_transitions: Dict[str, int] = {}
        self._board_state: Dict[int, str] = {}
        self._board_state_since: Dict[int, float] = {}
        self._state_seconds: Dict[str, float] = {}
        self._max_t = 0.0
        self._makespan_s = 0.0
        self._device_busy_s: Tuple[float, ...] = ()
        self._jobs_done = 0

    # -- buffering -----------------------------------------------------

    def _finite(self, t: float) -> float:
        """Clamp a non-finite event time to the run's current edge.

        A board parked "until the next arrival" wakes at ``inf`` when
        none remain, and jobs whose deadline already passed are
        rejected there; those events belong in the last window touched
        so far, not in an unboundedly distant one.
        """
        if math.isfinite(t):
            return t
        return max(self._max_t, self._q_last_t)

    def _point(self, t: float, value: float, series: int) -> None:
        self._pt_t.append(t)
        self._pt_v.append(value)
        self._pt_s.append(series)
        if t > self._max_t:
            self._max_t = t

    def _hold(self, t: float, value: int, series: int) -> None:
        self._hold_t.append(t)
        self._hold_v.append(value)
        self._hold_s.append(series)

    def _board_row(self, board: int) -> int:
        row = self._board_rows.get(board)
        if row is None:
            row = self._board_rows[board] = self._rows
            self._rows += 1
        return row

    def _queue_row(self, key: Tuple[str, str]) -> int:
        name = f"{key[0]}/{key[1]}"
        row = self._queue_names.get(name)
        if row is None:
            row = self._queue_names[name] = self._rows
            self._rows += 1
        self._queue_rows[key] = row
        return row

    def _new_buffers(self) -> None:
        """Empty event columns: points (t, value, series), spans (t0,
        t1, scale, row), sample-and-hold levels (t, value, series),
        cache snapshots (t, end of their member rows) and snapshot
        member rows (board, six counters)."""
        self._pt_t, self._pt_v, self._pt_s = \
            array("d"), array("d"), array("b")
        self._sp_t0, self._sp_t1, self._sp_v, self._sp_r = \
            array("d"), array("d"), array("d"), array("q")
        self._hold_t, self._hold_v, self._hold_s = \
            array("d"), array("d"), array("b")
        self._snap_t, self._snap_end = array("d"), array("q")
        self._snap_b, self._snap_v = array("q"), array("q")

    def _maybe_flush(self) -> None:
        if (len(self._pt_t) >= FLUSH_EVENTS
                or len(self._sp_t0) >= FLUSH_EVENTS
                or len(self._snap_b) >= FLUSH_EVENTS):
            self._flush()

    # -- bucketing -----------------------------------------------------

    def _reserve(self, windows: int) -> None:
        """Grow the window arrays to ``windows`` columns (capacity
        doubles) and to every span row registered so far."""
        if windows > self._cap:
            self._cap = max(windows, 2 * self._cap)
        cap = self._cap
        self._points = _fit(self._points, (_POINT_SERIES, cap))
        self._areas = _fit(self._areas, (self._rows, cap))
        self._row_flushed = _fit(self._row_flushed, (self._rows,))
        self._held = _fit(self._held, (_HOLD_SERIES, cap), np.nan)
        self._snaps = _fit(self._snaps, (cap, len(_CACHE_KEYS)))
        self._snapped = _fit(self._snapped, (cap,))

    def _flush(self) -> None:
        """Bucket every buffered event into the window arrays.

        Each window's terms are added in event order (``np.add.at`` is
        unbuffered and in order), so every window sum is bit-identical
        to adding event by event.
        """
        w = self.window_s
        self._reserve(0)
        if self._pt_t:
            win = window_indices(np.frombuffer(self._pt_t), w)
            series = np.frombuffer(self._pt_s, dtype=np.int8).astype(
                np.int64)
            self._reserve(int(win.max()) + 1)
            np.add.at(self._points.reshape(-1), series * self._cap + win,
                      np.frombuffer(self._pt_v))
            np.maximum.at(self._point_len, series, win + 1)
        if self._sp_t0:
            t0 = np.frombuffer(self._sp_t0)
            t1 = np.frombuffer(self._sp_t1)
            rows = np.frombuffer(self._sp_r, dtype=np.int64)
            # A span covers windows first..last: last is the first
            # window at or after first whose end reaches t1 (the
            # window-by-window walk's stopping rule).
            first = window_indices(t0, w)
            last = np.maximum(first, window_indices(t1, w) - 1)
            short = (last + 1) * w < t1
            while short.any():
                last += short
                short = (last + 1) * w < t1
            counts = last - first + 1
            span = np.repeat(np.arange(len(counts)), counts)
            win = (np.arange(len(span))
                   - np.repeat(np.cumsum(counts) - counts, counts)
                   + first[span])
            seg = (np.minimum(t1[span], (win + 1) * w)
                   - np.maximum(t0[span], win * w))
            keep = seg > 0
            span, win = span[keep], win[keep]
            self._reserve(int(last.max()) + 1)
            np.add.at(self._areas.reshape(-1), rows[span] * self._cap + win,
                      seg[keep] * np.frombuffer(self._sp_v)[span])
            self._row_flushed[rows] = True
        if self._hold_t:
            win = window_indices(np.frombuffer(self._hold_t), w)
            self._reserve(int(win.max()) + 1)
            keys = np.frombuffer(self._hold_s, dtype=np.int8).astype(
                np.int64) * self._cap + win
            at = _last_occurrence(keys)
            self._held.reshape(-1)[keys[at]] = np.frombuffer(
                self._hold_v)[at]
        if self._snap_t:
            win = window_indices(np.frombuffer(self._snap_t), w)
            self._reserve(int(win.max()) + 1)
            at = _last_occurrence(win)
            self._snaps[win[at]] = self._pool_snapshots()[at]
            self._snapped[win[at]] = True
        self._new_buffers()

    def _pool_snapshots(self) -> np.ndarray:
        """The pool aggregate after each buffered snapshot: every
        board's latest counters summed, exactly (int64).

        Each member row becomes its board's delta against that board's
        previous snapshot (carried across flushes in ``_cache_last``,
        zero before the first); the running sum of the deltas, read at
        each snapshot's last member row, is the aggregate.  A stable
        sort by board lines up each board's rows in event order.  The
        deltas are taken in place: the temporaries stay few, since
        they set the flush's share of peak memory."""
        boards = np.frombuffer(self._snap_b, dtype=np.int64)
        rows = np.frombuffer(self._snap_v, dtype=np.int64).reshape(
            -1, len(_CACHE_KEYS))
        last = self._cache_last = _fit(
            self._cache_last,
            (max(len(self._cache_last), int(boards.max(initial=-1)) + 1),
             len(_CACHE_KEYS)))
        order = np.argsort(boards, kind="stable")
        board = boards[order]
        first = np.ones(len(board), dtype=bool)
        first[1:] = board[1:] != board[:-1]
        final = np.ones(len(board), dtype=bool)
        final[:-1] = first[1:]
        running = np.vstack([self._cache_agg, rows])
        delta = running[1:]
        later = ~first[1:]
        delta[order[1:][later]] -= rows[order[:-1][later]]
        delta[order[first]] -= last[board[first]]
        last[board[final]] = rows[order[final]]
        np.cumsum(running, axis=0, out=running)
        self._cache_agg = running[-1].copy()
        return running[np.frombuffer(self._snap_end, dtype=np.int64)]

    # -- Recorder hooks ------------------------------------------------

    def run_begin(self, *, scenario: str, num_devices: int, policy: str,
                  price: Optional[Any] = None, max_batch: int = 1) -> None:
        self._run_info = {"scenario": scenario,
                          "num_devices": num_devices,
                          "policy": policy, "max_batch": max_batch}
        self._price = price
        for board in range(num_devices):
            self._board_row(board)

    def job_rejected(self, *, t: float, job_id: int, job_class: str,
                     tenant: str,
                     deadline_s: Optional[float] = None) -> None:
        # A rejected deadline-carrying job counts against SLO
        # attainment in the window of the rejection decision (the
        # report's accounting, windowed).
        t = self._finite(t)
        self._point(t, 1.0, _REJECTS)
        self._point(t, 1.0, _SLO_TOTAL)
        self._maybe_flush()

    def batch(self, *, start: float, finish: float, job_class: str,
              tenant: str, batch_size: int, launch_s: float,
              members: Sequence[MemberLoad],
              cache_stats: Sequence[CacheCounters] = (),
              slo_met: int = 0, slo_total: int = 0,
              cost: float = 0.0, killed: bool = False) -> None:
        # The hottest hook appends straight into the buffers: the rows
        # _point would take, in the same order.
        pt_t, pt_v, pt_s = self._pt_t, self._pt_v, self._pt_s
        board_rows = self._board_rows
        t_max = self._max_t
        for board, _, miss_bytes in members:
            # Row 0 is the total queue depth, so a board row is truthy.
            row = board_rows.get(board) or self._board_row(board)
            if finish > start:
                self._sp_t0.append(start)
                self._sp_t1.append(finish)
                self._sp_v.append(1.0)
                self._sp_r.append(row)
            if miss_bytes:
                t = start + launch_s
                pt_t.append(t)
                pt_v.append(miss_bytes)
                pt_s.append(_LOAD_BYTES)
                if t > t_max:
                    t_max = t
        if not killed:
            pt_t.append(finish)
            pt_v.append(batch_size)
            pt_s.append(_JOBS)
        pt_t.append(finish)
        pt_v.append(cost)
        pt_s.append(_COST)
        if slo_total:
            pt_t.extend((finish, finish))
            pt_v.extend((slo_met, slo_total))
            pt_s.extend((_SLO_MET, _SLO_TOTAL))
        if finish > t_max:
            t_max = finish
        self._max_t = t_max
        snap_b = self._snap_b
        if cache_stats:
            snap_v = self._snap_v
            for member, counters in zip(members, cache_stats):
                snap_b.append(member[0])
                snap_v.extend(counters)
            self._snap_t.append(finish)
            self._snap_end.append(len(snap_b))
        if (len(pt_t) >= FLUSH_EVENTS or len(self._sp_t0) >= FLUSH_EVENTS
                or len(snap_b) >= FLUSH_EVENTS):
            self._flush()

    def board_fault(self, *, t: float, board: int,
                    permanent: bool = False,
                    healthy: Optional[int] = None,
                    killed_batch: bool = False) -> None:
        t = self._finite(t)
        self._point(t, 1.0, _FAULTS)
        self._fault_count += 1
        if healthy is not None:
            self._hold(t, healthy, _HEALTHY)
            if (self._min_healthy is None
                    or healthy < self._min_healthy):
                self._min_healthy = healthy
        self._maybe_flush()

    def board_repair(self, *, t: float, board: int,
                     healthy: Optional[int] = None) -> None:
        t = self._finite(t)
        self._point(t, 1.0, _REPAIRS)
        self._repair_count += 1
        if healthy is not None:
            self._hold(t, healthy, _HEALTHY)
        self._maybe_flush()

    def pool_resize(self, *, t: float, board: int, direction: str,
                    provisioned: Optional[int] = None) -> None:
        t = self._finite(t)
        self._point(t, 1.0, _RESIZES)
        self._resize_count += 1
        if direction == "up":
            self._scale_ups += 1
        else:
            self._scale_downs += 1
        if provisioned is not None:
            self._hold(t, provisioned, _PROVISIONED)
            if (self._min_provisioned is None
                    or provisioned < self._min_provisioned):
                self._min_provisioned = provisioned
        self._maybe_flush()

    def ledger_transition(self, *, t: float, board: int, old: str,
                          new: str) -> None:
        t = self._finite(t)
        self._point(t, 1.0, _LEDGER)
        key = f"{old}->{new}"
        self._ledger_transitions[key] = (
            self._ledger_transitions.get(key, 0) + 1)
        since = self._board_state_since.get(board, 0.0)
        state = self._board_state.get(board, old)
        if t > since:
            self._state_seconds[state] = (
                self._state_seconds.get(state, 0.0) + (t - since))
        self._board_state[board] = new
        self._board_state_since[board] = max(t, since)
        self._maybe_flush()

    def queue_sample(self, *, t: float, total: int,
                     depths: Optional[Dict[Tuple[str, str], int]] = None
                     ) -> None:
        self._close_queue_span(t if math.isfinite(t) else self._finite(t))
        self._q_last_total = total
        if total > self.peak_queue_depth:
            self.peak_queue_depth = total
        if self._track_queues and depths:
            rows = self._queue_rows
            self._q_last = [(rows.get(key) or self._queue_row(key), depth)
                            for key, depth in depths.items() if depth]
        else:
            self._q_last = ()
        # Only the span buffer grew.
        if len(self._sp_t0) >= FLUSH_EVENTS:
            self._flush()

    def _close_queue_span(self, t: float) -> None:
        """Buffer the depth spans of the last sample, open until
        ``t``."""
        t0 = self._q_last_t
        if t <= t0:
            return
        total, depths = self._q_last_total, self._q_last
        if total or depths:
            sp_t0, sp_t1, sp_v, sp_r = \
                self._sp_t0, self._sp_t1, self._sp_v, self._sp_r
            if total:
                sp_t0.append(t0)
                sp_t1.append(t)
                sp_v.append(total)
                sp_r.append(_QUEUE_ROW)
            for row, depth in depths:
                sp_t0.append(t0)
                sp_t1.append(t)
                sp_v.append(depth)
                sp_r.append(row)
            if t > self._max_t:
                self._max_t = t
        self._q_last_t = t

    def run_end(self, *, makespan_s: float,
                device_busy_s: Sequence[float] = (),
                jobs_done: int = 0) -> None:
        self._close_queue_span(max(makespan_s, self._q_last_t))
        self._makespan_s = makespan_s
        self._device_busy_s = tuple(device_busy_s)
        self._jobs_done = jobs_done
        self._flush()

    # -- assembly ------------------------------------------------------

    def _ledger_state_seconds(self) -> Dict[str, float]:
        """Per-state board-seconds, closed at the run horizon.

        Boards the ledger never moved spent the whole run ``active``;
        the closed integral therefore sums to ``num_devices * horizon``
        (the conservation property the membership tests assert)."""
        if not self._ledger_transitions:
            return {}
        horizon = max(self._makespan_s, self._max_t,
                      max(self._board_state_since.values(), default=0.0))
        seconds = dict(self._state_seconds)
        boards = self._run_info.get("num_devices", 0)
        for board in range(boards):
            state = self._board_state.get(board, "active")
            since = self._board_state_since.get(board, 0.0)
            if horizon > since:
                seconds[state] = (seconds.get(state, 0.0)
                                  + (horizon - since))
        return seconds

    @property
    def num_windows(self) -> int:
        # Derived from the same boundary-exact index every event went
        # through, so an event at exactly the horizon can never index
        # one past the final window (the old independent ceil could
        # disagree with the event index at boundary instants).
        horizon = max(self._makespan_s, self._max_t)
        if horizon <= 0:
            return 1
        return window_index(horizon, self.window_s) + 1

    def _series(self, series: int, count: int) -> List[float]:
        return _padded(self._points[series], count)

    def _total(self, series: int) -> float:
        # Over the windows the series touched: the same value (and the
        # same int 0 for an untouched series) as summing the per-event
        # window list.
        return _sum(self._points[series, :self._point_len[series]])

    def _levels(self, series: int, count: int) -> List[Optional[float]]:
        """Sample-and-hold: between events the level is whatever the
        last event reported (the full pool before the first one)."""
        held = self._held[series, :count].tolist()
        out: List[Optional[float]] = []
        level = self._run_info.get("num_devices")
        level = float(level) if level is not None else None
        for index in range(count):
            if index < len(held) and not math.isnan(held[index]):
                level = held[index]
            out.append(level)
        return out

    def to_dict(self) -> Dict[str, Any]:
        self._flush()
        count = self.num_windows
        w = self.window_s
        boards = sorted(self._board_rows)
        board_util = [_padded(self._areas[self._board_rows[b]] / w, count)
                      for b in boards]
        queue_depth = _padded(self._areas[_QUEUE_ROW] / w, count)
        per_queue = {
            name: _padded(self._areas[row] / w, count)
            for name, row in sorted(self._queue_names.items())
            if self._row_flushed[row]}
        slo_met = self._series(_SLO_MET, count)
        slo_total = self._series(_SLO_TOTAL, count)
        rolling: List[Optional[float]] = []
        met_cum = total_cum = 0.0
        for met, total in zip(slo_met, slo_total):
            met_cum += met
            total_cum += total
            rolling.append(met_cum / total_cum if total_cum else None)
        cost_cum: List[float] = []
        spent = 0.0
        for value in self._series(_COST, count):
            spent += value
            cost_cum.append(spent)
        price_mean = None
        if self._price is not None:
            price_mean = [
                self._price.integral(i * w, (i + 1) * w) / w
                for i in range(count)]
        # Forward-fill the cache snapshots: between batches the cache
        # state is whatever the last batch left behind.
        cache: Dict[str, List[Optional[float]]] = {
            key: [] for key in _CACHE_KEYS}
        hit_rate: List[Optional[float]] = []
        snaps = self._snaps[:count].tolist()
        snapped = self._snapped[:count].tolist()
        last: Optional[List[int]] = None
        for index in range(count):
            if index < len(snapped) and snapped[index]:
                last = snaps[index]
            for key, value in zip(_CACHE_KEYS, last or _NO_STATS):
                cache[key].append(float(value) if last is not None
                                  else None)
            if last is not None and (last[0] + last[1]):
                hit_rate.append(last[0] / (last[0] + last[1]))
            else:
                hit_rate.append(None)
        windows: Dict[str, Any] = {
            "t0": [i * w for i in range(count)],
            "board_util": board_util,
            "queue_depth": queue_depth,
            "per_queue_depth": per_queue,
            "jobs_done": self._series(_JOBS, count),
            "key_bytes_loaded": self._series(_LOAD_BYTES, count),
            "key_hit_rate": hit_rate,
            "key_resident_bytes": cache["resident_bytes"],
            "key_bytes_evicted": cache["bytes_evicted"],
            "slo_met": slo_met,
            "slo_total": slo_total,
            "slo_rolling": rolling,
            "rejections": self._series(_REJECTS, count),
            "cost_cum": cost_cum,
        }
        if price_mean is not None:
            windows["price_mean"] = price_mean
        if self._fault_count or self._repair_count:
            windows["board_faults"] = self._series(_FAULTS, count)
            windows["board_repairs"] = self._series(_REPAIRS, count)
            windows["healthy_boards"] = self._levels(_HEALTHY, count)
        if self._resize_count:
            windows["pool_resizes"] = self._series(_RESIZES, count)
            # Capacity actually paid for, held like healthy_boards.
            windows["provisioned_boards"] = self._levels(_PROVISIONED,
                                                         count)
        if self._ledger_transitions:
            windows["ledger_transitions"] = self._series(_LEDGER, count)
        return {
            "meta": dict(self._meta),
            **self._run_info,
            "window_s": w,
            "num_windows": count,
            "makespan_s": self._makespan_s,
            "jobs_done": self._jobs_done,
            "device_busy_s": list(self._device_busy_s),
            "boards": boards,
            "windows": windows,
            "summary": self.summary(),
        }

    def summary(self) -> Dict[str, Any]:
        """Scalar roll-up (what sweep grid points attach)."""
        self._flush()
        busy = sum(_sum(self._areas[row])
                   for row in self._board_rows.values())
        capacity = self._makespan_s * max(len(self._board_rows), 1)
        met = self._total(_SLO_MET)
        total = self._total(_SLO_TOTAL)
        return {
            "makespan_s": self._makespan_s,
            "jobs_done": self._jobs_done,
            "mean_util": busy / capacity if capacity else 0.0,
            "peak_queue_depth": self.peak_queue_depth,
            "slo_attainment": met / total if total else None,
            "cost_price_units": self._total(_COST),
            "key_bytes_loaded": self._total(_LOAD_BYTES),
            "rejections": int(self._total(_REJECTS)),
            "board_faults": self._fault_count,
            "board_repairs": self._repair_count,
            "min_healthy_boards": self._min_healthy,
            "pool_resizes": self._resize_count,
            "scale_ups": self._scale_ups,
            "scale_downs": self._scale_downs,
            "min_provisioned_boards": self._min_provisioned,
            "ledger_transitions": dict(sorted(
                self._ledger_transitions.items())),
            "board_state_seconds": self._ledger_state_seconds(),
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)
