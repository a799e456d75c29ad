"""Event-driven resource scheduler for FAB operation task graphs.

FAB's performance comes from overlapping compute (the functional-unit
array) with memory traffic (HBM ports, CMAC): switching-key blocks are
prefetched while the previous block is still being multiplied (§4.6).
The scheduler here is a deterministic list scheduler over explicit task
graphs: each task names a resource, a duration in cycles, and its
dependencies; resources serialize their tasks (optionally across
multiple lanes).  The makespan and per-resource busy time quantify the
overlap, utilization, and whether a schedule is compute- or
memory-bound — the paper's central "balanced design" claim.

Two implementations of the same policy live here:

* :meth:`TaskGraph.schedule` — the fast path: one O((V+E) log V) pass
  over a ready-task heap, with integer-indexed successor lists and
  in-degree counts.  This is what everything in the repo calls.
* :meth:`TaskGraph.schedule_reference` — the naive list scheduler that
  rescans the whole frontier per placement, O(V^2 + VE).  It exists as
  an executable specification: the property tests assert the heap
  scheduler reproduces it exactly, and the perf benchmark measures the
  speedup against it.

The policy both implement: tasks are placed in ascending
``(ready_cycle, insertion_order)`` order, each on the earliest-free
lane of its resource, starting at ``max(ready_cycle, lane_free)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Task:
    """A unit of work bound to one resource.

    Attributes:
        name: unique identifier.
        resource: resource name (e.g. ``"fu"``, ``"hbm"``).
        cycles: duration in kernel cycles.
        deps: names of tasks that must finish first.
        device: optional board index for multi-FPGA graphs (the striped
            lowering tags every task with the board it runs on; ``None``
            for single-board graphs and shared resources like the CMAC
            link).  Purely an annotation — placement is driven by
            ``resource`` alone, so single-board scheduling is unchanged.
    """

    name: str
    resource: str
    cycles: int
    deps: Tuple[str, ...] = ()
    start: Optional[int] = None
    finish: Optional[int] = None
    device: Optional[int] = None


@dataclass
class ResourceStats:
    """Utilization summary for one resource."""

    name: str
    busy_cycles: int
    tasks: int

    def utilization(self, makespan: int) -> float:
        """Fraction of the makespan this resource was busy."""
        return self.busy_cycles / makespan if makespan else 0.0


@dataclass
class DeviceStats:
    """Per-board summary of a device-annotated (multi-FPGA) schedule.

    ``busy_cycles`` sums every task on the board across all of its
    resources (FU + HBM), so it may exceed ``finish`` when compute and
    fetch overlap; ``finish`` is when the board's last task completes.
    """

    device: Optional[int]
    busy_cycles: int
    tasks: int
    finish: int

    def utilization(self, makespan: int) -> float:
        """Busy fraction of the whole schedule's makespan."""
        return self.busy_cycles / makespan if makespan else 0.0


@dataclass
class ScheduleResult:
    """Outcome of scheduling a task graph."""

    makespan: int
    tasks: Dict[str, Task]
    resources: Dict[str, ResourceStats]

    def device_stats(self) -> Dict[Optional[int], DeviceStats]:
        """Aggregate the schedule per annotated device (board).

        Tasks with ``device=None`` (single-board graphs, shared links)
        land under the ``None`` key; a plain single-board schedule thus
        reports one ``None`` entry covering everything.
        """
        stats: Dict[Optional[int], DeviceStats] = {}
        for task in self.tasks.values():
            entry = stats.get(task.device)
            if entry is None:
                entry = stats[task.device] = DeviceStats(
                    task.device, 0, 0, 0)
            entry.busy_cycles += task.cycles
            entry.tasks += 1
            if task.finish is not None and task.finish > entry.finish:
                entry.finish = task.finish
        return stats

    def bound_by(self) -> str:
        """Which resource dominates: the one with the highest busy time."""
        if not self.resources:
            return "none"
        return max(self.resources.values(),
                   key=lambda r: r.busy_cycles).name

    def record_timeline(self, recorder, *, seconds_per_cycle: float,
                        group: str = "schedule",
                        origin_s: float = 0.0) -> None:
        """Emit every placed task as a span on ``recorder`` (a
        :class:`repro.obs.Recorder`; duck-typed so the core layer
        gains no import on the observability package).

        Tasks land on one track per resource name — the striped
        lowering's ``fu{board}``/``hbm{board}`` resources thus get a
        track per board and the shared CMAC link its own — with the
        board index (the striped lowering's device annotation) passed
        through.  ``seconds_per_cycle`` converts schedule cycles to
        recorder seconds (``1 / config.clock_hz``); ``origin_s``
        offsets the whole schedule, e.g. to pin it at a serving
        batch's start time.  Zero-length tasks are skipped — they
        carry no visible span.
        """
        if not getattr(recorder, "enabled", False):
            return
        for task in sorted(self.tasks.values(),
                           key=lambda t: (t.start or 0, t.name)):
            if task.finish is None or task.finish == task.start:
                continue
            recorder.schedule_task(
                group=group, track=task.resource, name=task.name,
                start_s=origin_s + task.start * seconds_per_cycle,
                finish_s=origin_s + task.finish * seconds_per_cycle,
                device=task.device)


class TaskGraph:
    """A DAG of tasks to be scheduled on named resources."""

    def __init__(self):
        self._tasks: Dict[str, Task] = {}
        self._order: List[Task] = []        # insertion order, by index
        self._index: Dict[str, int] = {}    # name -> insertion index
        self._lanes: Dict[str, int] = {}

    def set_resource_lanes(self, resource: str, lanes: int) -> None:
        """Allow ``lanes`` concurrent tasks on ``resource`` (default 1)."""
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self._lanes[resource] = lanes

    def add(self, name: str, resource: str, cycles: int,
            deps: Iterable[str] = (),
            device: Optional[int] = None) -> Task:
        """Add a task; returns it for chaining."""
        if name in self._tasks:
            raise ValueError(f"duplicate task {name}")
        deps = tuple(deps)
        for d in deps:
            if d not in self._tasks:
                raise ValueError(f"task {name} depends on unknown {d}")
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        task = Task(name, resource, int(cycles), deps, device=device)
        self._index[name] = len(self._order)
        self._tasks[name] = task
        self._order.append(task)
        return task

    def __len__(self) -> int:
        return len(self._tasks)

    # ------------------------------------------------------------------

    def _edges(self) -> Tuple[List[int], List[List[int]]]:
        """(in-degree, successor lists) indexed by insertion order.

        Read from the live ``deps`` tuples so graphs mutated after
        construction (the cycle-detection tests do this) are seen.
        """
        index = self._index
        indegree = [0] * len(self._order)
        successors: List[List[int]] = [[] for _ in self._order]
        for i, task in enumerate(self._order):
            indegree[i] = len(task.deps)
            for d in task.deps:
                successors[index[d]].append(i)
        return indegree, successors

    def _finalize(self, scheduled: int) -> ScheduleResult:
        if scheduled != len(self._order):
            raise ValueError("task graph contains a cycle")
        makespan = 0
        busy: Dict[str, int] = {}
        count: Dict[str, int] = {}
        for task in self._order:
            if task.finish > makespan:
                makespan = task.finish
            res = task.resource
            busy[res] = busy.get(res, 0) + task.cycles
            count[res] = count.get(res, 0) + 1
        stats = {r: ResourceStats(r, busy[r], count[r]) for r in busy}
        return ScheduleResult(makespan, dict(self._tasks), stats)

    def schedule(self) -> ScheduleResult:
        """List-schedule the DAG; returns the timed result.

        A task becomes ready when all dependencies finish; ready tasks
        are placed in (ready-cycle, insertion-order) order on the
        earliest free lane of their resource.  One heap-driven pass:
        O((V + E) log V).
        """
        order = self._order
        indegree, successors = self._edges()
        tasks = len(order)
        finish_of = [0] * tasks             # finish cycle, by index
        ready_at = [0] * tasks              # max dep finish, by index
        ready_heap: List[Tuple[int, int]] = [
            (0, i) for i in range(tasks) if indegree[i] == 0]
        heapq.heapify(ready_heap)
        lane_free: Dict[str, List[int]] = {}
        lanes = self._lanes
        scheduled = 0
        while ready_heap:
            ready, i = heapq.heappop(ready_heap)
            task = order[i]
            res = task.resource
            heap = lane_free.get(res)
            if heap is None:
                heap = lane_free[res] = [0] * lanes.get(res, 1)
            earliest = heapq.heappop(heap)
            start = ready if ready > earliest else earliest
            finish = start + task.cycles
            heapq.heappush(heap, finish)
            task.start, task.finish = start, finish
            finish_of[i] = finish
            scheduled += 1
            for j in successors[i]:
                if finish > ready_at[j]:
                    ready_at[j] = finish
                indegree[j] -= 1
                if indegree[j] == 0:
                    heapq.heappush(ready_heap, (ready_at[j], j))
        return self._finalize(scheduled)

    def schedule_reference(self) -> ScheduleResult:
        """The naive frontier-scanning list scheduler (same policy).

        Rescans every unplaced task per placement — O(V^2 + VE) — and
        recomputes each candidate's ready cycle from its dependency
        list.  Kept as the executable specification :meth:`schedule` is
        property-tested against, and as the perf-benchmark baseline.
        """
        order = self._order
        index = self._index
        pending = set(range(len(order)))
        finish_of: Dict[int, int] = {}
        lane_free: Dict[str, List[int]] = {}
        while pending:
            best: Optional[Tuple[int, int]] = None
            for i in sorted(pending):
                task = order[i]
                ready = 0
                placeable = True
                for d in task.deps:
                    di = index[d]
                    if di in pending:
                        placeable = False
                        break
                    if finish_of[di] > ready:
                        ready = finish_of[di]
                if placeable and (best is None or (ready, i) < best):
                    best = (ready, i)
            if best is None:
                raise ValueError("task graph contains a cycle")
            ready, i = best
            task = order[i]
            res = task.resource
            heap = lane_free.get(res)
            if heap is None:
                heap = lane_free[res] = [0] * self._lanes.get(res, 1)
            earliest = heapq.heappop(heap)
            start = max(ready, earliest)
            finish = start + task.cycles
            heapq.heappush(heap, finish)
            task.start, task.finish = start, finish
            finish_of[i] = finish
            pending.remove(i)
        return self._finalize(len(order) - len(pending))


def serial_cycles(tasks: Sequence[Tuple[str, int]]) -> int:
    """Total cycles with no overlap at all (upper-bound reference)."""
    return sum(c for _, c in tasks)
