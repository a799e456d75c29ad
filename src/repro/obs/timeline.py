"""Chrome trace-event timelines of serving runs and FAB schedules.

:class:`TimelineRecorder` turns the :class:`~repro.obs.recorder.Recorder`
event stream into the Chrome trace-event JSON format, loadable at
``ui.perfetto.dev`` (or ``chrome://tracing``):

* one track (``tid``) per FAB board, carrying **B/E span pairs** for
  every serviced batch with the key-load segment nested inside, plus
  **X spans** for the windows a deferral policy kept the board idle;
* a ``host-pcie`` **counter track** of in-flight switching-key bytes
  (gang members load in parallel, so this is a counter, not spans);
* a ``queue`` counter track of pending jobs and a ``policy`` track of
  **instants** for admissions, rejections, and policy decision
  points;
* one process per recorded static schedule (a striped lowering's
  ``ScheduleResult``), with a track per device resource — including
  the shared CMAC ring — and overlapping tasks lane-packed onto
  sub-tracks so every track renders without slice collisions.

Timestamps are microseconds, the format's native unit.  Events are
buffered out of order (a batch's end is known at dispatch time) and
sorted at :meth:`TimelineRecorder.save`; ends sort before begins at
equal timestamps so back-to-back spans on one track always nest.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .recorder import CacheCounters, MemberLoad, Recorder

_US = 1e6  # seconds -> trace-event microseconds

#: The serving pool's process id; schedule groups allocate upward.
SERVE_PID = 1


def _sort_key(event: Dict[str, Any]) -> Tuple[float, int]:
    # Metadata first, then by time; at equal timestamps an "E" must
    # precede the next "B" on the same track or viewers unbalance.
    if event["ph"] == "M":
        return (-1.0, 0)
    return (event["ts"], 0 if event["ph"] == "E" else 1)


class TimelineRecorder(Recorder):
    """Record a run as a Perfetto-loadable Chrome trace.

    ``meta`` (e.g. the :func:`repro.obs.provenance.provenance` dict)
    is embedded under ``otherData`` so every timeline artifact carries
    its seed, config digest, and git revision.
    """

    def __init__(self, meta: Optional[Mapping[str, Any]] = None):
        self._meta: Dict[str, Any] = dict(meta or {})
        self._events: List[Dict[str, Any]] = []
        self._board_tids: Dict[int, int] = {}
        self._aux_tids: Dict[str, int] = {}
        self._next_tid = 1
        #: board -> (start, wake) of its currently open deferral.
        self._open_defer: Dict[int, Tuple[float, float]] = {}
        #: (t_seconds, +/- bytes) deltas of the PCIe key-load counter.
        self._pcie_deltas: List[Tuple[float, int]] = []
        #: (t_seconds, healthy_count) samples of the pool-health
        #: counter, recorded at every fault/repair instant.
        self._healthy_points: List[Tuple[float, int]] = []
        #: (t_seconds, provisioned_count) samples of the pool-size
        #: counter, recorded at every voluntary resize instant.
        self._provisioned_points: List[Tuple[float, int]] = []
        #: group -> track -> [(start_s, finish_s, name, device)].
        self._sched: Dict[str, Dict[str, List[Tuple]]] = {}
        self._makespan_s = 0.0
        #: Latest finite timestamp seen; non-finite event times clamp
        #: here (a board parked "until arrivals" wakes at ``inf`` when
        #: none remain, and expired jobs are rejected there — those
        #: events belong at the end of the run, not off the timeline).
        self._clock = 0.0

    # -- track bookkeeping ---------------------------------------------

    def _finite(self, t: float) -> float:
        if math.isfinite(t):
            if t > self._clock:
                self._clock = t
            return t
        return self._clock

    def _board_tid(self, board: int) -> int:
        tid = self._board_tids.get(board)
        if tid is None:
            tid = self._board_tids[board] = self._next_tid
            self._next_tid += 1
        return tid

    def _aux_tid(self, label: str) -> int:
        tid = self._aux_tids.get(label)
        if tid is None:
            tid = self._aux_tids[label] = self._next_tid
            self._next_tid += 1
        return tid

    def _emit(self, ph: str, name: str, ts_s: float, tid: int,
              pid: int = SERVE_PID, **extra: Any) -> None:
        event = {"ph": ph, "name": name, "ts": ts_s * _US,
                 "pid": pid, "tid": tid, "cat": "serving"}
        event.update(extra)
        self._events.append(event)

    # -- Recorder hooks ------------------------------------------------

    def run_begin(self, *, scenario: str, num_devices: int, policy: str,
                  price: Optional[Any] = None, max_batch: int = 1) -> None:
        self._meta.setdefault("scenario", scenario)
        self._meta.setdefault("policy", policy)
        self._meta.setdefault("num_devices", num_devices)
        self._meta.setdefault("max_batch", max_batch)
        if price is not None:
            self._meta.setdefault("price", repr(price))
        for board in range(num_devices):
            self._board_tid(board)

    def job_arrival(self, *, t: float, job_id: int, job_class: str,
                    tenant: str, deadline_s: Optional[float] = None,
                    deferrable: bool = False) -> None:
        args: Dict[str, Any] = {"job_id": job_id, "tenant": tenant}
        if deadline_s is not None:
            args["deadline_s"] = deadline_s
        if deferrable:
            args["deferrable"] = True
        self._emit("i", f"admit {job_class}", self._finite(t),
                   self._aux_tid("policy"), s="t", args=args)

    def job_rejected(self, *, t: float, job_id: int, job_class: str,
                     tenant: str,
                     deadline_s: Optional[float] = None) -> None:
        self._emit("i", f"reject {job_class}", self._finite(t),
                   self._aux_tid("policy"), s="t",
                   args={"job_id": job_id, "tenant": tenant,
                         "deadline_s": deadline_s})

    def policy_event(self, *, t: float, name: str, **args: Any) -> None:
        self._emit("i", name, self._finite(t),
                   self._aux_tid("policy"), s="t", args=args or None)

    def queue_sample(self, *, t: float, total: int,
                     depths: Optional[Dict[Tuple[str, str], int]] = None
                     ) -> None:
        self._emit("C", "queue depth", self._finite(t),
                   self._aux_tid("queue"), args={"pending": total})

    def defer(self, *, board: int, t: float, wake: float) -> None:
        t = self._finite(t)
        self._close_defer(board, t)
        self._open_defer[board] = (t, wake)

    def _close_defer(self, board: int, t: float) -> None:
        opened = self._open_defer.pop(board, None)
        if opened is None:
            return
        start, wake = opened
        # The board stopped being "parked" at its wake time or at the
        # event that reclaimed it, whichever came first (event time is
        # monotone, so ``t`` is never before ``start``).  A wake of
        # ``inf`` means "until the next arrival": the board is simply
        # parked until the reclaiming event.
        end = self._finite(max(start, min(wake, t)))
        self._emit("X", "deferred", start, self._board_tid(board),
                   dur=(end - start) * _US,
                   args={"planned_wake_s":
                         wake if math.isfinite(wake) else None})

    def batch(self, *, start: float, finish: float, job_class: str,
              tenant: str, batch_size: int, launch_s: float,
              members: Sequence[MemberLoad],
              cache_stats: Sequence[CacheCounters] = (),
              slo_met: int = 0, slo_total: int = 0,
              cost: float = 0.0, killed: bool = False) -> None:
        """One batch span per gang board, with its key-load segment.
        ``cache_stats`` (per-board :data:`CacheCounters` tuples) is
        accepted and not drawn."""
        # A killed batch draws like any other span; its abort shows as
        # the ``batch_killed`` policy instant the simulator emits.
        gang = [board for board, _, _ in members]
        name = f"{job_class} x{batch_size}"
        self._finite(finish)  # advance the clamp clock past the batch
        for board, load_s, miss_bytes in members:
            self._close_defer(board, start)
            tid = self._board_tid(board)
            args = {"tenant": tenant, "batch": batch_size,
                    "gang": gang, "cost": cost}
            if slo_total:
                args["slo"] = f"{slo_met}/{slo_total}"
            self._emit("B", name, start, tid, args=args)
            if load_s > 0.0:
                t0 = start + launch_s
                self._emit("B", "key load", t0, tid,
                           args={"bytes": miss_bytes})
                self._emit("E", "key load", t0 + load_s, tid)
                self._pcie_deltas.append((t0, miss_bytes))
                self._pcie_deltas.append((t0 + load_s, -miss_bytes))
            self._emit("E", name, finish, tid)

    def board_fault(self, *, t: float, board: int,
                    permanent: bool = False,
                    healthy: Optional[int] = None,
                    killed_batch: bool = False) -> None:
        t = self._finite(t)
        self._close_defer(board, t)
        args: Dict[str, Any] = {"board": board}
        if permanent:
            args["permanent"] = True
        if killed_batch:
            args["killed_batch"] = True
        name = "fault (permanent)" if permanent else "fault"
        self._emit("i", name, t, self._board_tid(board), s="t",
                   args=args)
        if healthy is not None:
            self._healthy_points.append((t, healthy))

    def board_repair(self, *, t: float, board: int,
                     healthy: Optional[int] = None) -> None:
        t = self._finite(t)
        self._emit("i", "repair", t, self._board_tid(board), s="t",
                   args={"board": board})
        if healthy is not None:
            self._healthy_points.append((t, healthy))

    def pool_resize(self, *, t: float, board: int, direction: str,
                    provisioned: Optional[int] = None) -> None:
        t = self._finite(t)
        self._close_defer(board, t)
        self._emit("i", f"scale-{direction}", t,
                   self._board_tid(board), s="t",
                   args={"board": board, "provisioned": provisioned})
        if provisioned is not None:
            self._provisioned_points.append((t, provisioned))

    def ledger_transition(self, *, t: float, board: int, old: str,
                          new: str) -> None:
        t = self._finite(t)
        self._emit("i", f"ledger {old}->{new}", t,
                   self._board_tid(board), s="t",
                   args={"board": board, "old": old, "new": new})

    def schedule_task(self, *, group: str, track: str, name: str,
                      start_s: float, finish_s: float,
                      device: Optional[int] = None) -> None:
        tracks = self._sched.setdefault(group, {})
        tracks.setdefault(track, []).append(
            (start_s, finish_s, name, device))

    def run_end(self, *, makespan_s: float,
                device_busy_s: Sequence[float] = (),
                jobs_done: int = 0) -> None:
        self._makespan_s = max(self._makespan_s, makespan_s)
        for board in list(self._open_defer):
            # A deferral may outlive the last completion; close it at
            # its own wake (capped below by its start; an ``inf`` wake
            # — parked until arrivals — closes at the makespan).
            start, wake = self._open_defer[board]
            end = max(makespan_s, start)
            if math.isfinite(wake):
                end = max(end, wake)
            self._close_defer(board, end)
        if device_busy_s:
            self._meta.setdefault(
                "device_busy_s", [round(b, 9) for b in device_busy_s])
        self._meta.setdefault("jobs_done", jobs_done)
        self._meta.setdefault("makespan_s", makespan_s)

    # -- assembly ------------------------------------------------------

    def _metadata_events(self) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = []

        def process(pid: int, label: str) -> None:
            events.append({"ph": "M", "name": "process_name", "ts": 0,
                           "pid": pid, "tid": 0,
                           "args": {"name": label}})

        def thread(pid: int, tid: int, label: str) -> None:
            events.append({"ph": "M", "name": "thread_name", "ts": 0,
                           "pid": pid, "tid": tid,
                           "args": {"name": label}})
            events.append({"ph": "M", "name": "thread_sort_index",
                           "ts": 0, "pid": pid, "tid": tid,
                           "args": {"sort_index": tid}})

        scenario = self._meta.get("scenario", "run")
        process(SERVE_PID, f"serving pool [{scenario}]")
        for board, tid in sorted(self._board_tids.items()):
            thread(SERVE_PID, tid, f"board {board}")
        for label, tid in sorted(self._aux_tids.items()):
            thread(SERVE_PID, tid, label)
        return events

    def _counter_events(self) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = []
        if self._pcie_deltas:
            tid = self._aux_tid("host-pcie")
            merged: Dict[float, int] = {}
            for t, delta in self._pcie_deltas:
                merged[t] = merged.get(t, 0) + delta
            level = 0
            for t in sorted(merged):
                level += merged[t]
                events.append(
                    {"ph": "C", "name": "key-load bytes in flight",
                     "ts": t * _US, "pid": SERVE_PID, "tid": tid,
                     "cat": "serving", "args": {"bytes": max(level, 0)}})
        if self._healthy_points:
            tid = self._aux_tid("pool-health")
            # Samples arrive in event order; keep the last value at
            # equal timestamps (a repair and a fault can coincide).
            for t, healthy in self._healthy_points:
                events.append(
                    {"ph": "C", "name": "healthy boards",
                     "ts": t * _US, "pid": SERVE_PID, "tid": tid,
                     "cat": "serving", "args": {"boards": healthy}})
        if self._provisioned_points:
            tid = self._aux_tid("pool-size")
            for t, provisioned in self._provisioned_points:
                events.append(
                    {"ph": "C", "name": "provisioned boards",
                     "ts": t * _US, "pid": SERVE_PID, "tid": tid,
                     "cat": "serving", "args": {"boards": provisioned}})
        return events

    def _schedule_events(self) -> Tuple[List[Dict[str, Any]],
                                        List[Dict[str, Any]]]:
        meta: List[Dict[str, Any]] = []
        spans: List[Dict[str, Any]] = []
        pid = SERVE_PID
        for group in sorted(self._sched):
            pid += 1
            meta.append({"ph": "M", "name": "process_name", "ts": 0,
                         "pid": pid, "tid": 0,
                         "args": {"name": group}})
            tid = 0
            for track in sorted(self._sched[group]):
                tasks = sorted(self._sched[group][track])
                # Lane-pack overlapping tasks (a multi-lane resource
                # such as a dual-port HBM model) onto sub-tracks so no
                # track carries overlapping slices.
                lanes: List[float] = []
                packed: List[List[Tuple]] = []
                for task in tasks:
                    start = task[0]
                    for lane, busy_until in enumerate(lanes):
                        if busy_until <= start:
                            break
                    else:
                        lane = len(lanes)
                        lanes.append(0.0)
                        packed.append([])
                    lanes[lane] = task[1]
                    packed[lane].append(task)
                for lane, lane_tasks in enumerate(packed):
                    tid += 1
                    label = track if len(packed) == 1 \
                        else f"{track}.{lane}"
                    meta.append({"ph": "M", "name": "thread_name",
                                 "ts": 0, "pid": pid, "tid": tid,
                                 "args": {"name": label}})
                    meta.append({"ph": "M",
                                 "name": "thread_sort_index",
                                 "ts": 0, "pid": pid, "tid": tid,
                                 "args": {"sort_index": tid}})
                    for start_s, finish_s, name, device in lane_tasks:
                        # dur as a difference of converted stamps so a
                        # back-to-back neighbor's ts equals ts + dur
                        # exactly (no a + (b-a) != b float drift).
                        ts = start_s * _US
                        event = {"ph": "X", "name": name,
                                 "ts": ts,
                                 "dur": finish_s * _US - ts,
                                 "pid": pid, "tid": tid,
                                 "cat": "schedule"}
                        if device is not None:
                            event["args"] = {"device": device}
                        spans.append(event)
        return meta, spans

    def to_dict(self) -> Dict[str, Any]:
        """The complete trace-event document (JSON object format)."""
        sched_meta, sched_spans = self._schedule_events()
        events = sorted(
            self._events + self._counter_events() + sched_spans,
            key=_sort_key)
        trace = self._metadata_events() + sched_meta + events
        other = {str(k): v for k, v in self._meta.items()}
        return {"traceEvents": trace, "displayTimeUnit": "ms",
                "otherData": other}

    def save(self, path: str) -> None:
        """Write the trace; open the file at ``ui.perfetto.dev``."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)
