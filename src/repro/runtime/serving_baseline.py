"""The pre-optimization serving event loop, kept as a live baseline.

This module preserves, verbatim in behavior, the serving simulator's
original inner loop and key-cache bookkeeping:

* admission re-checks ``any(queues.values())`` — a scan over every
  (class, tenant) queue — once per dispatch;
* the dispatch queue is chosen with a ``min`` pass over all queue
  heads per batch;
* the key cache recomputes its resident byte total by summing the
  whole table on every eviction check, and each eviction rescans the
  table from the front — O(R^2) under misses.

The optimized :meth:`repro.runtime.serving.ServingSimulator.run`
replaces all of that with a lazily-invalidated head heap and an O(1)
LRU.  Keeping the old loop executable serves two purposes: the test
suite asserts the fast path is **bit-identical** to it on every
scenario (same makespans, tail latencies, hit rates, batch counts for
a fixed seed), and ``benchmarks/test_bench_perf_stack.py`` measures
the speedup against it in the same run, which is what
``BENCH_perf_stack.json`` records.

The policy subsystem (:mod:`repro.runtime.policies`) keeps this loop
as its ground truth too: ``run(..., policy="fifo")`` must reproduce
this schedule bit-identically, which
``tests/runtime/test_policy_fifo_regression.py`` asserts across the
regression matrix.  The loop accumulates the flat-price cost integral
per batch in dispatch order — the same floating-point operations the
policy-driven loop performs — so even ``cost_price_units`` compares
exactly equal.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from typing import Dict, List, Optional, Tuple

from ..obs import Recorder
from .policies import PriceSignal
from .serving import (DeviceState, JobClass, Scenario, ServingReport,
                      ServingSimulator, key_load_seconds, report_from_jobs)


class BaselineKeyCache:
    """The original LRU cache: correct, but quadratic under eviction."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._resident: "OrderedDict[Tuple[str, str], int]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.bytes_loaded = 0
        self.evictions = 0
        self.bytes_evicted = 0

    @property
    def resident_bytes(self) -> int:
        return sum(self._resident.values())

    def request(self, tenant: str, job_class: JobClass) -> int:
        """Make a job's keys resident; returns bytes that must load."""
        wanted = [(tenant, key) for key in job_class.key_ids]
        miss_bytes = 0
        for entry in wanted:
            if entry in self._resident:
                self.hits += 1
                self._resident.move_to_end(entry)
            else:
                self.misses += 1
                miss_bytes += job_class.bytes_per_key
                self._resident[entry] = job_class.bytes_per_key
        pinned = set(wanted)
        while (self.resident_bytes > self.capacity_bytes
               and any(e not in pinned for e in self._resident)):
            for entry in self._resident:
                if entry not in pinned:
                    self.evictions += 1
                    self.bytes_evicted += self._resident[entry]
                    del self._resident[entry]
                    break
        self.bytes_loaded += miss_bytes
        return miss_bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def stats(self) -> Dict[str, int]:
        """Counter dict mirroring :meth:`repro.runtime.serving.
        KeyCache.stats` (the parity test compares them)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_loaded": self.bytes_loaded,
            "evictions": self.evictions,
            "bytes_evicted": self.bytes_evicted,
            "resident_bytes": self.resident_bytes,
        }


def baseline_run(simulator: ServingSimulator, scenario: Scenario,
                 seed: int = 0,
                 recorder: Optional[Recorder] = None) -> ServingReport:
    """Run ``scenario`` through the original (pre-heap) event loop.

    Single-board job classes only: the baseline predates multi-FPGA
    striping, and the equivalence suite uses it as the ground truth a
    zero-communication striped run must collapse to.

    ``recorder`` hooks mirror the optimized loop's (guarded the same
    way, so an unrecorded baseline run is bit-identical to before):
    arrivals, per-batch service spans with key loads and cache
    snapshots, and the run roll-up.  The fifo policy has no
    rejections or deferrals, so those hooks never fire here.
    """
    rec = (recorder if recorder is not None and recorder.enabled
           else None)
    for stream in scenario.streams:
        if stream.job_class.num_fpgas > 1:
            raise ValueError(
                f"baseline_run predates striping; job class "
                f"{stream.job_class.name!r} needs "
                f"{stream.job_class.num_fpgas} boards")
    jobs = scenario.generate(seed)
    devices = [DeviceState(i, BaselineKeyCache(simulator.key_cache_bytes))
               for i in range(simulator.num_devices)]
    free_heap: List[Tuple[float, int]] = [(0.0, d.index) for d in devices]
    heapq.heapify(free_heap)
    queues: "OrderedDict[Tuple[str, str], deque]" = OrderedDict()
    completed: List = []
    batches = 0
    batched_jobs = 0
    cost_price_units = 0.0
    price = PriceSignal.flat()
    i = 0
    n = len(jobs)
    if rec is not None:
        rec.run_begin(scenario=scenario.name,
                      num_devices=simulator.num_devices,
                      policy="fifo", price=price,
                      max_batch=simulator.max_batch)

    def admit(now: float) -> None:
        nonlocal i
        while i < n and jobs[i].arrival_s <= now:
            job = jobs[i]
            key = (job.job_class.name, job.tenant)
            queues.setdefault(key, deque()).append(job)
            if rec is not None:
                rec.job_arrival(t=job.arrival_s, job_id=job.job_id,
                                job_class=job.job_class.name,
                                tenant=job.tenant,
                                deferrable=job.deferrable)
            i += 1

    while i < n or any(queues.values()):
        free_at, device_index = heapq.heappop(free_heap)
        now = free_at
        admit(now)
        if not any(queues.values()):
            # Idle until the next arrival.
            now = max(now, jobs[i].arrival_s)
            admit(now)
        # Oldest-head-first across (class, tenant) queues: FIFO
        # fairness between tenants, batching within a queue.
        key = min((k for k, q in queues.items() if q),
                  key=lambda k: queues[k][0].arrival_s)
        queue = queues[key]
        batch = [queue.popleft()
                 for _ in range(min(simulator.max_batch, len(queue)))]
        device = devices[device_index]
        miss_bytes = device.cache.request(batch[0].tenant,
                                          batch[0].job_class)
        load_s = key_load_seconds(simulator.host, miss_bytes)
        compute_s = len(batch) * batch[0].job_class.seconds(simulator.config)
        service_s = (simulator.host.kernel_launch_overhead_s
                     + load_s + compute_s)
        finish = now + service_s
        for job in batch:
            job.finish_s = finish
        completed.extend(batch)
        device.free_at_s = finish
        device.busy_s += service_s
        device.jobs_done += len(batch)
        batches += 1
        batched_jobs += len(batch)
        batch_cost = 1 * price.integral(now, finish)
        cost_price_units += batch_cost
        heapq.heappush(free_heap, (finish, device_index))
        if rec is not None:
            rec.queue_sample(
                t=now, total=sum(len(q) for q in queues.values()),
                depths={k: len(q) for k, q in queues.items() if q})
            rec.batch(
                start=now, finish=finish,
                job_class=batch[0].job_class.name,
                tenant=batch[0].tenant, batch_size=len(batch),
                launch_s=simulator.host.kernel_launch_overhead_s,
                members=((device_index, load_s, miss_bytes),),
                cache_stats=(device.cache.stats(),),
                cost=batch_cost)

    if rec is not None:
        rec.run_end(
            makespan_s=max((j.finish_s or 0.0 for j in completed),
                           default=0.0),
            device_busy_s=tuple(d.busy_s for d in devices),
            jobs_done=len(completed))
    return report_from_jobs(scenario, completed, devices, batches=batches,
                            batched_jobs=batched_jobs,
                            cost_price_units=cost_price_units)
