"""Test-only oracle: the per-event ``MetricsRecorder``.

This is the windowed recorder as it was before
:class:`repro.obs.metrics.MetricsRecorder` became columnar: every hook
call finds its window with the scalar :func:`window_index` and adds
into a Python list on the spot, and every busy or queue-depth span is
walked window by window.  It is kept here, outside the package, only
so the exactness properties in ``test_metrics_oracle.py`` can demand
that the columnar recorder's ``to_dict()`` equals this one's with
``==`` on arbitrary hook streams.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import window_index
from repro.obs.recorder import CacheCounters, MemberLoad, Recorder

_CACHE_KEYS = ("hits", "misses", "bytes_loaded", "evictions",
               "bytes_evicted", "resident_bytes")


def _grow(series: List[float], index: int) -> None:
    if index >= len(series):
        series.extend([0.0] * (index + 1 - len(series)))


class ReferenceMetricsRecorder(Recorder):
    """Per-event windowed metrics: every hook updates the window lists
    in place."""

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
        # window series (lists indexed by window, grown on demand)
        self._busy: Dict[int, List[float]] = {}
        self._load_bytes: List[float] = []
        self._jobs: List[float] = []
        self._slo_met: List[float] = []
        self._slo_total: List[float] = []
        self._rejects: List[float] = []
        self._cost: List[float] = []
        self._queue_area: List[float] = []
        self._per_queue_area: Dict[str, List[float]] = {}
        #: window -> pool-aggregate cache snapshot (last seen wins).
        self._cache_snap: Dict[int, Dict[str, int]] = {}
        self._cache_last: Dict[int, Mapping[str, int]] = {}
        # queue-depth integration state
        self._q_last_t = 0.0
        self._q_last_total = 0
        self._q_last: Dict[Tuple[str, str], int] = {}
        self.peak_queue_depth = 0
        # fault-injection series: faults/repairs per window, plus a
        # sample-and-hold healthy-board count (None until the first
        # fault event reports one).
        self._faults: List[float] = []
        self._repairs: List[float] = []
        self._healthy_snap: Dict[int, int] = {}
        self._fault_count = 0
        self._repair_count = 0
        self._min_healthy: Optional[int] = None
        # autoscaler series: voluntary resizes per window plus a
        # sample-and-hold provisioned-board count.
        self._resizes: List[float] = []
        self._provisioned_snap: Dict[int, int] = {}
        self._resize_count = 0
        self._scale_ups = 0
        self._scale_downs = 0
        self._min_provisioned: Optional[int] = None
        # membership-ledger series: transitions per window, transition
        # counts keyed "old->new", and a per-state board-seconds
        # integral reconstructed from the transition stream (every
        # board starts active at t=0).
        self._ledger_events: List[float] = []
        self._ledger_transitions: Dict[str, int] = {}
        self._board_state: Dict[int, str] = {}
        self._board_state_since: Dict[int, float] = {}
        self._state_seconds: Dict[str, float] = {}
        self._max_t = 0.0
        self._makespan_s = 0.0
        self._device_busy_s: Tuple[float, ...] = ()
        self._jobs_done = 0

    # -- window helpers ------------------------------------------------

    def _index(self, t: float) -> int:
        return window_index(t, self.window_s)

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

    def _add(self, series: List[float], t: float, value: float) -> None:
        index = self._index(t)
        _grow(series, index)
        series[index] += value
        if t > self._max_t:
            self._max_t = t

    def _spread(self, series: List[float], t0: float, t1: float,
                scale: float = 1.0) -> None:
        """Apportion ``scale`` * overlap-seconds of ``[t0, t1]`` into
        each window it intersects (exact, so integrals reconstruct)."""
        if t1 <= t0:
            return
        if t1 > self._max_t:
            self._max_t = t1
        w = self.window_s
        index = self._index(t0)
        _grow(series, self._index(t1))
        while True:
            hi = (index + 1) * w
            seg = min(t1, hi) - max(t0, index * w)
            if seg > 0:
                _grow(series, index)
                series[index] += seg * scale
            if hi >= t1:
                return
            index += 1

    # -- Recorder hooks ------------------------------------------------

    def run_begin(self, *, scenario: str, num_devices: int, policy: str,
                  price: Optional[Any] = None, max_batch: int = 1) -> None:
        self._run_info = {"scenario": scenario,
                          "num_devices": num_devices,
                          "policy": policy, "max_batch": max_batch}
        self._price = price
        for board in range(num_devices):
            self._busy.setdefault(board, [])

    def job_rejected(self, *, t: float, job_id: int, job_class: str,
                     tenant: str,
                     deadline_s: Optional[float] = None) -> None:
        # A rejected deadline-carrying job counts against SLO
        # attainment in the window of the rejection decision (the
        # report's accounting, windowed).
        t = self._finite(t)
        self._add(self._rejects, t, 1.0)
        self._add(self._slo_total, t, 1.0)
        _grow(self._slo_met, self._index(t))

    def batch(self, *, start: float, finish: float, job_class: str,
              tenant: str, batch_size: int, launch_s: float,
              members: Sequence[MemberLoad],
              cache_stats: Sequence[CacheCounters] = (),
              slo_met: int = 0, slo_total: int = 0,
              cost: float = 0.0, killed: bool = False) -> None:
        for board, load_s, miss_bytes in members:
            self._spread(self._busy.setdefault(board, []), start, finish)
            if miss_bytes:
                self._add(self._load_bytes, start + launch_s,
                          float(miss_bytes))
        if not killed:
            self._add(self._jobs, finish, float(batch_size))
        self._add(self._cost, finish, cost)
        if slo_total:
            self._add(self._slo_met, finish, float(slo_met))
            self._add(self._slo_total, finish, float(slo_total))
        if cache_stats:
            for member, counters in zip(members, cache_stats):
                self._cache_last[member[0]] = dict(zip(_CACHE_KEYS,
                                                       counters))
            snap = {key: 0 for key in _CACHE_KEYS}
            for stats in self._cache_last.values():
                for key in _CACHE_KEYS:
                    snap[key] += int(stats.get(key, 0))
            self._cache_snap[self._index(finish)] = snap

    def board_fault(self, *, t: float, board: int,
                    permanent: bool = False,
                    healthy: Optional[int] = None,
                    killed_batch: bool = False) -> None:
        t = self._finite(t)
        self._add(self._faults, t, 1.0)
        self._fault_count += 1
        if healthy is not None:
            self._healthy_snap[self._index(t)] = healthy
            if (self._min_healthy is None
                    or healthy < self._min_healthy):
                self._min_healthy = healthy

    def board_repair(self, *, t: float, board: int,
                     healthy: Optional[int] = None) -> None:
        t = self._finite(t)
        self._add(self._repairs, t, 1.0)
        self._repair_count += 1
        if healthy is not None:
            self._healthy_snap[self._index(t)] = healthy

    def pool_resize(self, *, t: float, board: int, direction: str,
                    provisioned: Optional[int] = None) -> None:
        t = self._finite(t)
        self._add(self._resizes, t, 1.0)
        self._resize_count += 1
        if direction == "up":
            self._scale_ups += 1
        else:
            self._scale_downs += 1
        if provisioned is not None:
            self._provisioned_snap[self._index(t)] = provisioned
            if (self._min_provisioned is None
                    or provisioned < self._min_provisioned):
                self._min_provisioned = provisioned

    def ledger_transition(self, *, t: float, board: int, old: str,
                          new: str) -> None:
        t = self._finite(t)
        self._add(self._ledger_events, t, 1.0)
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

    def queue_sample(self, *, t: float, total: int,
                     depths: Optional[Dict[Tuple[str, str], int]] = None
                     ) -> None:
        self._flush_queue_area(self._finite(t))
        self._q_last_total = total
        if total > self.peak_queue_depth:
            self.peak_queue_depth = total
        if self._track_queues and depths is not None:
            self._q_last = dict(depths)
        else:
            self._q_last = {}

    def _flush_queue_area(self, t: float) -> None:
        if t <= self._q_last_t:
            self._q_last_t = max(self._q_last_t, t)
            return
        if self._q_last_total:
            self._spread(self._queue_area, self._q_last_t, t,
                         scale=float(self._q_last_total))
        for (job_class, tenant), depth in self._q_last.items():
            if depth:
                series = self._per_queue_area.setdefault(
                    f"{job_class}/{tenant}", [])
                self._spread(series, self._q_last_t, t,
                             scale=float(depth))
        self._q_last_t = t

    def run_end(self, *, makespan_s: float,
                device_busy_s: Sequence[float] = (),
                jobs_done: int = 0) -> None:
        self._flush_queue_area(max(makespan_s, self._q_last_t))
        self._makespan_s = makespan_s
        self._device_busy_s = tuple(device_busy_s)
        self._jobs_done = jobs_done

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
        return self._index(horizon) + 1

    def _padded(self, series: List[float], count: int) -> List[float]:
        return series + [0.0] * (count - len(series))

    def to_dict(self) -> Dict[str, Any]:
        count = self.num_windows
        w = self.window_s
        boards = sorted(self._busy)
        board_util = [
            [value / w for value in self._padded(self._busy[b], count)]
            for b in boards]
        queue_depth = [area / w
                       for area in self._padded(self._queue_area, count)]
        per_queue = {
            name: [area / w for area in self._padded(series, count)]
            for name, series in sorted(self._per_queue_area.items())}
        slo_met = self._padded(self._slo_met, count)
        slo_total = self._padded(self._slo_total, count)
        rolling: List[Optional[float]] = []
        met_cum = total_cum = 0.0
        for met, total in zip(slo_met, slo_total):
            met_cum += met
            total_cum += total
            rolling.append(met_cum / total_cum if total_cum else None)
        cost_cum: List[float] = []
        spent = 0.0
        for value in self._padded(self._cost, count):
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
        last: Optional[Dict[str, int]] = None
        for index in range(count):
            last = self._cache_snap.get(index, last)
            for key in _CACHE_KEYS:
                cache[key].append(
                    float(last[key]) if last is not None else None)
            if last is not None and (last["hits"] + last["misses"]):
                hit_rate.append(
                    last["hits"] / (last["hits"] + last["misses"]))
            else:
                hit_rate.append(None)
        windows: Dict[str, Any] = {
            "t0": [i * w for i in range(count)],
            "board_util": board_util,
            "queue_depth": queue_depth,
            "per_queue_depth": per_queue,
            "jobs_done": self._padded(self._jobs, count),
            "key_bytes_loaded": self._padded(self._load_bytes, count),
            "key_hit_rate": hit_rate,
            "key_resident_bytes": cache["resident_bytes"],
            "key_bytes_evicted": cache["bytes_evicted"],
            "slo_met": slo_met,
            "slo_total": slo_total,
            "slo_rolling": rolling,
            "rejections": self._padded(self._rejects, count),
            "cost_cum": cost_cum,
        }
        if price_mean is not None:
            windows["price_mean"] = price_mean
        if self._fault_count or self._repair_count:
            windows["board_faults"] = self._padded(self._faults, count)
            windows["board_repairs"] = self._padded(self._repairs,
                                                    count)
            # Sample-and-hold: between fault events the pool size is
            # whatever the last event reported (full pool before the
            # first fault).
            healthy_series: List[Optional[float]] = []
            level: Optional[int] = self._run_info.get("num_devices")
            for index in range(count):
                level = self._healthy_snap.get(index, level)
                healthy_series.append(
                    float(level) if level is not None else None)
            windows["healthy_boards"] = healthy_series
        if self._resize_count:
            windows["pool_resizes"] = self._padded(self._resizes, count)
            # Sample-and-hold like healthy_boards: between resize
            # events capacity is whatever the last event left behind
            # (the full pool before the first resize).
            provisioned_series: List[Optional[float]] = []
            level = self._run_info.get("num_devices")
            for index in range(count):
                level = self._provisioned_snap.get(index, level)
                provisioned_series.append(
                    float(level) if level is not None else None)
            windows["provisioned_boards"] = provisioned_series
        if self._ledger_transitions:
            windows["ledger_transitions"] = self._padded(
                self._ledger_events, count)
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
        busy = sum(sum(series) for series in self._busy.values())
        capacity = self._makespan_s * max(len(self._busy), 1)
        met = sum(self._slo_met)
        total = sum(self._slo_total)
        return {
            "makespan_s": self._makespan_s,
            "jobs_done": self._jobs_done,
            "mean_util": busy / capacity if capacity else 0.0,
            "peak_queue_depth": self.peak_queue_depth,
            "slo_attainment": met / total if total else None,
            "cost_price_units": sum(self._cost),
            "key_bytes_loaded": sum(self._load_bytes),
            "rejections": int(sum(self._rejects)),
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
