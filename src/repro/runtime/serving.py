"""Discrete-event multi-tenant FHE serving simulator.

Models a pool of FAB devices (the :class:`MultiFpgaSystem` topology)
serving streams of traced jobs:

* **Jobs** are lowered traces: a :class:`JobClass` caches the
  scheduled device cycles and the switching-key working set of one
  trace (see :mod:`repro.runtime.lowering`).  A *striped* class
  (``num_fpgas > 1``, lowered by
  :mod:`repro.runtime.striped_lowering`) gang-occupies that many
  boards per batch, FAB-2 style.
* **Admission/batching**: arriving jobs queue per (class, tenant);
  a free device takes up to ``max_batch`` compatible jobs at once.
  Compatible means same program *and* same tenant — switching keys
  are per-tenant secrets, so only same-tenant jobs share key state.
  *Which* queue runs next — and whether a job is admitted at all —
  is delegated to a pluggable :mod:`repro.runtime.policies` policy:
  ``fifo`` (the historical order, bit-identical to the preserved
  baseline loop), ``edf`` (deadline-ordered with admission control),
  or ``deferrable-window`` (batch jobs yield to interactive traffic
  and run in cheap slots of a time-varying price signal).
* **SLO annotations**: a :class:`Stream` may carry ``slo_ms`` (each
  job's deadline is its arrival plus the SLO) or be ``deferrable``
  with a ``window_s`` execution window; reports then grow SLO
  attainment (overall, per workload, and per tenant), rejection and
  deferral counts, and the device-time cost integrated under the
  price signal.
* **Key residency**: each device's HBM holds a finite LRU cache of
  switching keys.  A batch whose keys are not resident pays the
  host-to-HBM PCIe transfer (the §3 offload path) before compute;
  resident keys ride for free.  Batching therefore amortizes both the
  XRT launch overhead and the key loads — the serving-level analogue
  of the paper's intra-op prefetching.
* **Metrics**: per-workload throughput and p50/p95/p99 latency, device
  utilization, and key-cache hit rates, assembled from per-job outcome
  columns by one builder (:func:`build_report`) that both engines use.

The simulator is deterministic for a given scenario seed, which the
test suite relies on.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..core.hbm import HbmModel
from ..core.host import HostConfig
from ..core.params import FabConfig
from ..core.trace import format_table
from ..experiments.common import ExperimentResult, ExperimentRow
from ..obs import Recorder
from ..obs.metrics import _CACHE_KEYS
from .arrivals import ArrivalProcess, PoissonProcess, make_process
from .lowering import cost_trace
from .optrace import OpTrace
from .policies import PriceSignal

#: Engines selectable in :meth:`ServingSimulator.run`: the exact DES
#: (bit-identical to the preserved baseline under fifo) and the
#: vectorized fast engine in :mod:`repro.runtime.fast_engine`.
ENGINES = ("des", "fast")


# ----------------------------------------------------------------------
# Workload description
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSource:
    """How a :class:`JobClass` was lowered from its trace.

    Retained (``compare=False``, so class identity/hashing ignores it)
    to let the fault-tolerant serving path *re-lower* a striped class
    onto a smaller gang when boards die — degraded-mode re-planning
    needs the original trace and lowering knobs, not just the priced
    result.
    """

    trace: OpTrace
    prefetch: bool = True
    policy: str = "round_robin"
    plan: object = None
    comm_scale: float = 1.0


@dataclass(frozen=True)
class JobClass:
    """A traced program, priced once and shared by all its jobs.

    ``num_fpgas > 1`` marks a *striped* class (see
    :mod:`repro.runtime.striped_lowering`): each job gang-occupies that
    many boards at once for ``cycles`` kernel cycles, and its switching
    keys are replicated into every occupied board's HBM.
    """

    name: str
    cycles: int
    key_ids: Tuple[str, ...]
    bytes_per_key: int
    num_fpgas: int = 1
    #: Lowering provenance for degraded-mode re-planning; excluded
    #: from equality/hash so annotated classes keep interning and
    #: comparing exactly as before.
    source: Optional[TraceSource] = field(default=None, compare=False,
                                          repr=False)

    def __post_init__(self):
        if self.num_fpgas < 1:
            raise ValueError("num_fpgas must be >= 1")
        if self.bytes_per_key < 0:
            raise ValueError("bytes_per_key must be >= 0")

    def restriped(self, num_fpgas: int,
                  config: Optional[FabConfig] = None
                  ) -> Optional["JobClass"]:
        """Re-lower this class's trace onto a ``num_fpgas``-board
        stripe (degraded mode), or ``None`` when the class was built
        without its trace and cannot be re-planned."""
        if self.source is None:
            return None
        src = self.source
        return JobClass.from_trace(
            src.trace, config, prefetch=src.prefetch,
            num_fpgas=num_fpgas, policy=src.policy, plan=src.plan,
            comm_scale=src.comm_scale)

    def seconds(self, config: FabConfig) -> float:
        return config.cycles_to_seconds(self.cycles)

    @property
    def key_bytes(self) -> int:
        """Key working set of ONE board (keys replicate per board)."""
        return len(self.key_ids) * self.bytes_per_key

    @classmethod
    def from_trace(cls, trace: OpTrace,
                   config: Optional[FabConfig] = None,
                   prefetch: bool = True,
                   num_fpgas: int = 1,
                   policy: str = "round_robin",
                   plan=None,
                   comm_scale: float = 1.0) -> "JobClass":
        """Lower and schedule a trace into a servable job class.

        With ``num_fpgas > 1`` the trace is striped across that many
        boards (``policy``/``plan``/``comm_scale`` as in
        :mod:`repro.runtime.striped_lowering`): the class's ``cycles``
        is the striped pool makespan — including CMAC synchronization
        — and each job occupies the whole gang.  ``comm_scale=0``
        zeroes the communication bill while keeping the
        synchronization structure (the equivalence tests' knob).
        """
        source = TraceSource(trace, prefetch=prefetch, policy=policy,
                             plan=plan, comm_scale=comm_scale)
        if num_fpgas == 1:
            cost = cost_trace(trace, config, prefetch=prefetch)
            return cls(trace.name, cost.cycles, cost.keys.key_ids,
                       cost.keys.bytes_per_key, source=source)
        from .lowering import key_working_set
        from .striped_lowering import lower_striped_trace
        report = lower_striped_trace(
            trace, num_fpgas, config, policy=policy, plan=plan,
            comm_scale=comm_scale).schedule(prefetch=prefetch)
        keys = key_working_set(trace, config, num_fpgas=num_fpgas)
        return cls(trace.name, report.cycles, keys.key_ids,
                   keys.bytes_per_key, num_fpgas=num_fpgas,
                   source=source)


@dataclass(slots=True)
class Job:
    """One request: a job class instance owned by a tenant.

    ``deadline_s`` is the job's SLO deadline (absolute sim time);
    ``window_end_s`` bounds a ``deferrable`` job's execution window.
    ``rejected`` marks a job an admission-controlled policy dropped;
    ``deferred`` marks one the deferrable tier explicitly held back
    at least once.

    The fault-tolerant path (:mod:`repro.runtime.faults`) adds:
    ``retries`` counts re-enqueues after a board failure killed the
    job's batch; ``shed`` marks a job dropped by the recovery machinery
    (retry budget exhausted, un-plannable gang, or pool death) with
    ``shed_reason`` naming which; ``degraded`` marks a striped job that
    completed on a smaller-than-planned gang.  Retried jobs keep their
    original ``arrival_s`` and ``deadline_s`` — latency and SLO
    accounting always measure from first arrival.
    """

    job_id: int
    job_class: JobClass
    tenant: str
    arrival_s: float
    finish_s: Optional[float] = None
    deadline_s: Optional[float] = None
    window_end_s: Optional[float] = None
    deferrable: bool = False
    rejected: bool = False
    deferred: bool = False
    retries: int = 0
    shed: bool = False
    shed_reason: Optional[str] = None
    degraded: bool = False

    @property
    def latency_s(self) -> float:
        if self.finish_s is None:
            raise ValueError(f"job {self.job_id} has not completed")
        return self.finish_s - self.arrival_s

    @property
    def effective_deadline_s(self) -> float:
        """The time this job must finish by: its SLO deadline, else
        its window end, else infinity (no constraint)."""
        if self.deadline_s is not None:
            return self.deadline_s
        if self.window_end_s is not None:
            return self.window_end_s
        return math.inf


@dataclass(frozen=True)
class Stream:
    """An arrival stream of one job class across tenants.

    Arrivals are homogeneous Poisson at ``rate_per_s`` by default; a
    ``process`` (any :class:`repro.runtime.arrivals.ArrivalProcess` —
    diurnal, MMPP, flash crowd, trace replay) reshapes them while
    ``rate_per_s`` keeps describing the stream's nominal rate for
    capacity planning.  ``slo_ms`` stamps each job with a deadline
    (arrival + SLO).  ``deferrable`` marks the stream's jobs as batch
    work that may be deferred within a ``window_s``-second execution
    window after arrival (required when deferrable — an unbounded
    deferrable job could be postponed forever).
    """

    job_class: JobClass
    rate_per_s: float
    num_tenants: int = 1
    tenant_prefix: str = "tenant"
    start_s: float = 0.0
    slo_ms: Optional[float] = None
    deferrable: bool = False
    window_s: Optional[float] = None
    process: Optional[ArrivalProcess] = None

    def __post_init__(self):
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.num_tenants < 1:
            raise ValueError("need at least one tenant")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive")
        if self.window_s is not None and self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.deferrable and self.window_s is None:
            raise ValueError("a deferrable stream needs a window_s")

    def arrival_process(self) -> ArrivalProcess:
        """The stream's arrival process (default: Poisson at
        ``rate_per_s``, the historical behavior)."""
        return (self.process if self.process is not None
                else PoissonProcess(self.rate_per_s))


@dataclass(frozen=True)
class ArrivalChunk:
    """One chunk of generated arrivals in structure-of-arrays form.

    ``stream_index`` points into ``Scenario.streams`` and
    ``tenant_index`` is the tenant draw within that stream; together
    they determine a job's class, tenant string, deadline, and window
    without materializing a :class:`Job`.  Job ids are
    ``start_id .. start_id + len - 1`` in chunk order (global arrival
    order), matching :meth:`Scenario.generate`.
    """

    arrival_s: np.ndarray
    stream_index: np.ndarray
    tenant_index: np.ndarray
    start_id: int

    def __len__(self) -> int:
        return int(self.arrival_s.size)


@dataclass
class Scenario:
    """A named mix of streams over a finite arrival horizon."""

    name: str
    duration_s: float
    streams: List[Stream]

    def __post_init__(self):
        # duration_s == 0 is a legitimate empty horizon (no arrivals).
        if self.duration_s < 0:
            raise ValueError("duration_s must be >= 0")

    def generate(self, seed: int = 0) -> List[Job]:
        """Draw the job arrivals (deterministic per seed).

        The exact-mode :meth:`arrivals` chunks, materialized as
        :class:`Job` objects: each stream draws from its arrival
        process (homogeneous Poisson by default) on one shared RNG, in
        stream order; for default streams the draw sequence is
        bit-identical to the historical inlined Poisson loop, which the
        regression suite asserts seed-for-seed.
        """
        return self.jobs_from_arrivals(self.arrivals(seed, mode="exact"))

    def arrivals(self, seed: int = 0, chunk_jobs: int = 65536,
                 mode: str = "exact") -> Iterator[ArrivalChunk]:
        """Generate arrivals as chunked structure-of-arrays.

        The fast engine's input path: no per-job Python objects are
        materialized, only numpy arrays (``chunk_jobs`` rows at a
        time, globally sorted by arrival).  ``mode="exact"`` draws
        from one seeded :class:`random.Random` — the sequence
        :meth:`generate` materializes as jobs — so both engines can
        share one arrival sequence.  ``mode="vectorized"`` draws the
        same processes from a :class:`numpy.random.Generator` in
        numpy batches, ~10x faster at million-job scale but a
        different (equally distributed) sequence per seed.
        """
        if chunk_jobs < 1:
            raise ValueError("chunk_jobs must be >= 1")
        times_per_stream: List[np.ndarray] = []
        tenants_per_stream: List[np.ndarray] = []
        if mode == "exact":
            rng = random.Random(seed)
            for stream in self.streams:
                process = stream.arrival_process()
                times: List[float] = []
                tenants: List[int] = []
                num_tenants = stream.num_tenants
                for t in process.iter_times(rng, stream.start_s,
                                            self.duration_s):
                    times.append(t)
                    tenants.append(rng.randrange(num_tenants))
                times_per_stream.append(
                    np.asarray(times, dtype=np.float64))
                tenants_per_stream.append(
                    np.asarray(tenants, dtype=np.int32))
        elif mode == "vectorized":
            np_rng = np.random.default_rng(seed)
            for stream in self.streams:
                process = stream.arrival_process()
                times = process.sample_times(np_rng, stream.start_s,
                                             self.duration_s)
                times_per_stream.append(times)
                tenants_per_stream.append(np_rng.integers(
                    stream.num_tenants, size=times.size,
                    dtype=np.int32))
        else:
            raise ValueError(f"unknown arrival mode {mode!r}; "
                             f"try: exact, vectorized")
        arrival_s = np.concatenate(times_per_stream) if self.streams \
            else np.empty(0, dtype=np.float64)
        stream_index = np.repeat(
            np.arange(len(self.streams), dtype=np.int32),
            [t.size for t in times_per_stream])
        tenant_index = (np.concatenate(tenants_per_stream)
                        if self.streams
                        else np.empty(0, dtype=np.int32))
        # Stable sort: ties keep stream order, exactly like the
        # stable list.sort in generate().
        order = np.argsort(arrival_s, kind="stable")
        arrival_s = arrival_s[order]
        stream_index = stream_index[order]
        tenant_index = tenant_index[order]
        for lo in range(0, arrival_s.size, chunk_jobs):
            hi = min(lo + chunk_jobs, arrival_s.size)
            yield ArrivalChunk(arrival_s[lo:hi], stream_index[lo:hi],
                               tenant_index[lo:hi], start_id=lo)

    def jobs_from_arrivals(
            self, chunks: Iterator[ArrivalChunk]) -> List[Job]:
        """Materialize :class:`Job` objects from :meth:`arrivals`
        chunks (how :meth:`generate` builds the DES's job list)."""
        per_stream = [(st.job_class,
                       [f"{st.tenant_prefix}{t}"
                        for t in range(st.num_tenants)],
                       None if st.slo_ms is None else st.slo_ms / 1e3,
                       st.window_s, st.deferrable)
                      for st in self.streams]
        jobs: List[Job] = []
        for chunk in chunks:
            rows = zip(chunk.arrival_s.tolist(),
                       chunk.stream_index.tolist(),
                       chunk.tenant_index.tolist())
            for job_id, (t, s, tenant) in enumerate(rows, chunk.start_id):
                job_class, names, slo_s, window_s, deferrable = \
                    per_stream[s]
                jobs.append(Job(
                    job_id, job_class, names[tenant], t,
                    deadline_s=None if slo_s is None else t + slo_s,
                    window_end_s=(None if window_s is None
                                  else t + window_s),
                    deferrable=deferrable))
        return jobs

    def with_arrivals(self, spec: str) -> "Scenario":
        """A copy whose every stream draws from the arrival process
        described by ``spec`` (see
        :func:`repro.runtime.arrivals.make_process`), keeping each
        stream's nominal rate as the process's mean rate."""
        return Scenario(self.name, self.duration_s, [
            replace(stream, process=make_process(
                spec, stream.rate_per_s, self.duration_s))
            for stream in self.streams])


# ----------------------------------------------------------------------
# Device state
# ----------------------------------------------------------------------

class KeyCache:
    """LRU cache of per-tenant switching keys resident in one HBM.

    Backed by an :class:`~collections.OrderedDict` kept in
    least-recently-used-first order (hits are moved to the MRU end,
    loads insert there), with a running byte total, so each request is
    O(keys) and each eviction is O(1): the victim is always the entry
    at the LRU front.  The keys of the request being admitted are
    pinned — they were all just touched, so they occupy the MRU end
    and are never evicted mid-request (residency may transiently
    exceed capacity when one working set outsizes the cache).

    :meth:`request` is the one entry point of every cache class:
    subclasses change how residency is tracked by overriding
    :meth:`_load`, never the accounting around it.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._resident: "OrderedDict[Tuple, object]" = OrderedDict()
        self._resident_bytes = 0
        self.hits = 0
        self.misses = 0
        self.bytes_loaded = 0
        self.evictions = 0
        self.bytes_evicted = 0

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def peek_miss_bytes(self, tenant: str, job_class: JobClass) -> int:
        """Bytes :meth:`request` would load right now, without
        touching residency or LRU order (the admission preview).

        Never more than ``job_class.key_bytes`` (equal on an empty
        cache), so the fast engine consults it only when the cold
        load of the whole working set misses the batch's deadline."""
        resident = self._resident
        return sum(job_class.bytes_per_key
                   for key in job_class.key_ids
                   if (tenant, key) not in resident)

    def request(self, tenant: str, job_class: JobClass) -> int:
        """Make a job's keys resident; returns bytes that must load."""
        miss_bytes = self._load(tenant, job_class)
        self.bytes_loaded += miss_bytes
        return miss_bytes

    def _load(self, tenant: str, job_class: JobClass) -> int:
        resident = self._resident
        bytes_per_key = job_class.bytes_per_key
        miss_bytes = 0
        for key in job_class.key_ids:
            entry = (tenant, key)
            if entry in resident:
                self.hits += 1
                resident.move_to_end(entry)
            else:
                self.misses += 1
                miss_bytes += bytes_per_key
                resident[entry] = bytes_per_key
                self._resident_bytes += bytes_per_key
        if self._resident_bytes > self.capacity_bytes:
            # Every pinned (just-touched) entry sits at the MRU end,
            # so the LRU front is evictable until only pins remain.
            pinned = {(tenant, key) for key in job_class.key_ids}
            while self._resident_bytes > self.capacity_bytes:
                victim = next(iter(resident))
                if victim in pinned:
                    break
                victim_bytes = resident.pop(victim)
                self._resident_bytes -= victim_bytes
                self.evictions += 1
                self.bytes_evicted += victim_bytes
        return miss_bytes

    def drop_all(self) -> int:
        """Evict every resident key (a board fault wipes its HBM).

        The cumulative hit/miss/bytes_loaded counters survive — they
        describe traffic, not residency — while ``evictions`` and
        ``bytes_evicted`` record the wipe, so post-fault cache stats
        still reconcile.  Returns the bytes dropped."""
        dropped = self._resident_bytes
        self.evictions += len(self._resident)
        self.bytes_evicted += dropped
        self._resident.clear()
        self._resident_bytes = 0
        return dropped

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            # A never-used cache has no meaningful rate; report 0
            # rather than raising (reports aggregate over idle boards).
            return 0.0
        return self.hits / total

    def counters(self) -> Tuple[int, int, int, int, int, int]:
        """Cumulative counters plus current residency, in
        :data:`repro.obs.metrics._CACHE_KEYS` order: what recorders
        snapshot per batch."""
        return (self.hits, self.misses, self.bytes_loaded,
                self.evictions, self.bytes_evicted, self._resident_bytes)

    def stats(self) -> Dict[str, int]:
        """:meth:`counters` keyed by name."""
        return dict(zip(_CACHE_KEYS, self.counters()))


class SetKeyCache(KeyCache):
    """The same LRU, tracked a working set at a time.

    A job class's switching keys are always requested together, so
    per-key residency collapses to one ``(tenant, key_ids) ->
    (resident-key count, bytes_per_key)`` entry: a set's resident keys
    are always the newest suffix of its ``key_ids``, contiguous in LRU
    order.  Eviction takes whole sets (or the oldest part of one) from
    the LRU front, and every counter matches :class:`KeyCache`
    request for request — ``drop_all`` too counts resident *keys* in
    ``evictions``.  That holds whenever no tenant requests two
    distinct key sets that overlap and each ``key_ids`` tuple has one
    ``bytes_per_key``; :func:`key_caches` checks this once per run and
    hands out per-key caches otherwise.
    """

    def peek_miss_bytes(self, tenant: str, job_class: JobClass) -> int:
        held = self._resident.get((tenant, job_class.key_ids))
        count = 0 if held is None else held[0]
        return (len(job_class.key_ids) - count) * job_class.bytes_per_key

    def _load(self, tenant: str, job_class: JobClass) -> int:
        key_ids = job_class.key_ids
        n_keys = len(key_ids)
        entry = (tenant, key_ids)
        resident = self._resident
        held = resident.get(entry)
        if held is None:
            count = 0
        else:
            count = held[0]
            resident.move_to_end(entry)
            self.hits += count
            if count == n_keys:
                # Residency only exceeds capacity while the last
                # request's set is all that is left, so a full hit
                # never evicts.
                return 0
        missed = n_keys - count
        bytes_per_key = job_class.bytes_per_key
        if missed:
            resident[entry] = (n_keys, bytes_per_key)
            self.misses += missed
            self._resident_bytes += missed * bytes_per_key
        resident_bytes = self._resident_bytes
        capacity = self.capacity_bytes
        # The requesting set sits pinned at the MRU end; evict from the
        # LRU front a set (or its oldest keys) at a time, exactly as
        # the per-key loop evicts key by key.
        evictions = bytes_evicted = 0
        while resident_bytes > capacity:
            victim, held = resident.popitem(last=False)
            if victim == entry:
                # Only the pinned set is left.
                resident[entry] = held
                break
            v_count, v_bytes = held
            if v_bytes == 0:
                # Zero-byte keys free no space; the per-key loop pops
                # them one by one and moves on.
                evictions += v_count
                continue
            evict = min(v_count,
                        -((capacity - resident_bytes) // v_bytes))
            if evict < v_count:
                # The survivors keep the entry's LRU-front position.
                resident[victim] = (v_count - evict, v_bytes)
                resident.move_to_end(victim, last=False)
            resident_bytes -= evict * v_bytes
            evictions += evict
            bytes_evicted += evict * v_bytes
        self._resident_bytes = resident_bytes
        self.evictions += evictions
        self.bytes_evicted += bytes_evicted
        return missed * bytes_per_key

    def drop_all(self) -> int:
        dropped = self._resident_bytes
        self.evictions += sum(count for count, _ in self._resident.values())
        self.bytes_evicted += dropped
        self._resident.clear()
        self._resident_bytes = 0
        return dropped


def key_caches(sim, scenario: Scenario,
               pool_changes: bool = False) -> List[KeyCache]:
    """One empty key cache per board of ``sim`` for one run.

    Working-set caches (:class:`SetKeyCache`) when they are exact for
    ``scenario``, per-key :class:`KeyCache` otherwise.  They are not
    exact when some tenant name requests two distinct, overlapping key
    sets (names are ``prefix + index``, so streams with different
    prefixes can still share a tenant), when one ``key_ids`` tuple
    comes with two ``bytes_per_key`` or repeats a key, or when
    ``pool_changes`` (faults or autoscaling) can re-plan a striped
    class onto a narrower stripe with a different key set.
    """
    exact = _working_sets_exact(scenario.streams, pool_changes)
    return [(SetKeyCache if exact else KeyCache)(sim.key_cache_bytes)
            for _ in range(sim.num_devices)]


def _working_sets_exact(streams: Sequence[Stream],
                        pool_changes: bool) -> bool:
    bytes_per_key: Dict[Tuple[str, ...], int] = {}
    for stream in streams:
        jc = stream.job_class
        if (bytes_per_key.setdefault(jc.key_ids, jc.bytes_per_key)
                != jc.bytes_per_key
                or len(set(jc.key_ids)) != len(jc.key_ids)
                or (pool_changes and jc.num_fpgas > 1)):
            return False
    for i, a in enumerate(streams):
        for b in streams[i + 1:]:
            keys_a, keys_b = a.job_class.key_ids, b.job_class.key_ids
            if (keys_a != keys_b and not set(keys_a).isdisjoint(keys_b)
                    and not _tenant_names(a).isdisjoint(_tenant_names(b))):
                return False
    return True


def _tenant_names(stream: Stream) -> set:
    return {f"{stream.tenant_prefix}{t}" for t in range(stream.num_tenants)}


@dataclass
class DeviceState:
    """One FAB board in the serving pool."""

    index: int
    cache: KeyCache
    free_at_s: float = 0.0
    busy_s: float = 0.0
    jobs_done: int = 0


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return float("nan")
    rank = max(int(math.ceil(q / 100.0 * len(sorted_values))) - 1, 0)
    return sorted_values[min(rank, len(sorted_values) - 1)]


@dataclass
class WorkloadStats:
    """Latency/throughput summary for one job class.

    ``slo_attainment`` is the fraction of this class's
    deadline-carrying jobs (completed *or* rejected) that finished by
    their effective deadline; ``None`` when the class carries no
    deadlines.  ``rejected`` counts jobs admission control dropped.
    """

    name: str
    jobs: int
    throughput_jps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    slo_attainment: Optional[float] = None
    rejected: int = 0


@dataclass
class ServingReport:
    """Outcome of one simulated scenario."""

    scenario: str
    makespan_s: float
    jobs_done: int
    per_workload: List[WorkloadStats]
    device_utilization: float
    key_hit_rate: float
    key_bytes_loaded: int
    batches: int
    mean_batch_size: float
    #: Jobs credited per device; each job counts exactly once pool-wide
    #: (a striped gang credits its master), so this sums to jobs_done.
    per_device_jobs: Tuple[int, ...] = ()
    #: Name of the scheduling policy that produced this report.
    policy: str = "fifo"
    #: Jobs dropped by admission control (they never ran).
    rejected_jobs: int = 0
    #: Distinct jobs the deferrable tier explicitly held back.
    deferred_jobs: int = 0
    #: Busy device-time integrated under the price signal (equals
    #: busy device-seconds under the default flat unit price).
    cost_price_units: float = 0.0
    #: Fraction of deadline-carrying jobs that met their effective
    #: deadline (None when the scenario carries no deadlines).
    slo_attainment: Optional[float] = None
    #: Per-tenant SLO attainment, sorted by tenant name.
    per_tenant_slo: Tuple[Tuple[str, float], ...] = ()
    #: Completed jobs that met their effective deadline, per second of
    #: makespan (jobs with no deadline always count).  Under faults
    #: this is the useful-work rate; compare against
    #: :attr:`throughput_jps` to see fault-induced waste.
    goodput_jps: float = 0.0
    #: Board-down events injected by the fault process (0 without
    #: fault injection; the fields below likewise).
    board_faults: int = 0
    #: Batch executions killed mid-service by a board fault.
    failures: int = 0
    #: Job re-enqueues performed by the retry policy.
    retries: int = 0
    #: Jobs dropped by recovery (retry budget exhausted or pool dead).
    shed_jobs: int = 0
    #: Striped jobs dropped because no viable smaller gang existed.
    shed_degraded: int = 0
    #: Jobs that completed on a degraded (smaller) gang.
    degraded_jobs: int = 0
    #: Device-seconds burned by batches that a fault later killed.
    wasted_service_s: float = 0.0
    #: Voluntary pool resizes performed by the autoscaler (board-down
    #: + board-up transitions; 0 without ``autoscale=``).
    resize_events: int = 0
    #: Boards the autoscaler parked (drained free, cache evicted).
    scale_downs: int = 0
    #: Boards the autoscaler returned to service (cold).
    scale_ups: int = 0
    #: Provisioned board-seconds — the capacity actually paid for.
    #: Statically provisioned runs pay ``makespan_s * num_devices``;
    #: an autoscaled run pays only for in-service boards.
    board_seconds: float = 0.0

    @property
    def board_s_per_good_job(self) -> float:
        """Cost-per-goodput: provisioned board-seconds per job that
        completed by its effective deadline (lower is better;
        ``inf`` when nothing good finished)."""
        good = self.goodput_jps * self.makespan_s
        if good <= 0:
            return math.inf
        return self.board_seconds / good

    @property
    def throughput_jps(self) -> float:
        """Completed jobs per second of makespan (goodput's ceiling)."""
        return self.jobs_done / self.makespan_s if self.makespan_s \
            else 0.0

    def tenant_slo(self, tenant: str) -> float:
        for name, attained in self.per_tenant_slo:
            if name == tenant:
                return attained
        raise KeyError(f"no SLO-annotated jobs for tenant {tenant!r} "
                       f"in scenario {self.scenario!r}")

    def workload(self, name: str) -> WorkloadStats:
        for stats in self.per_workload:
            if stats.name == name:
                return stats
        raise KeyError(f"no workload {name!r} in scenario "
                       f"{self.scenario!r}")

    def format(self) -> str:
        rows = [(w.name, w.jobs, f"{w.throughput_jps:.1f}",
                 f"{w.p50_ms:.2f}", f"{w.p95_ms:.2f}", f"{w.p99_ms:.2f}",
                 f"{w.mean_ms:.2f}") for w in self.per_workload]
        table = format_table(
            ("workload", "jobs", "jobs/s", "p50_ms", "p95_ms", "p99_ms",
             "mean_ms"), rows)
        text = (f"== serve[{self.scenario}]: {self.jobs_done} jobs in "
                f"{self.makespan_s:.3f}s ==\n{table}\n"
                f"devices {100 * self.device_utilization:.0f}% busy; "
                f"key cache {100 * self.key_hit_rate:.0f}% hits "
                f"({self.key_bytes_loaded / 1e9:.2f} GB loaded); "
                f"{self.batches} batches, mean size "
                f"{self.mean_batch_size:.2f}")
        # The policy line appears whenever there is something
        # policy-related to say — SLO accounting, a non-default
        # policy, or admission/deferral activity — not only on
        # annotated scenarios (cost and policy are always populated).
        if (self.slo_attainment is not None or self.policy != "fifo"
                or self.rejected_jobs or self.deferred_jobs):
            slo = (f"{100 * self.slo_attainment:.1f}% SLO attainment, "
                   if self.slo_attainment is not None else "")
            text += (f"\npolicy {self.policy}: {slo}"
                     f"{self.rejected_jobs} rejected, "
                     f"{self.deferred_jobs} deferred, "
                     f"cost {self.cost_price_units * 1e3:.2f} "
                     f"price-unit-ms")
        if (self.board_faults or self.failures or self.shed_jobs
                or self.shed_degraded or self.degraded_jobs):
            text += (f"\nfaults: {self.board_faults} board faults, "
                     f"{self.failures} killed batches, "
                     f"{self.retries} retries, "
                     f"{self.shed_jobs} shed + {self.shed_degraded} "
                     f"shed-degraded, {self.degraded_jobs} served "
                     f"degraded; goodput {self.goodput_jps:.1f}/s of "
                     f"{self.throughput_jps:.1f}/s throughput")
        if self.resize_events:
            per_good = self.board_s_per_good_job
            text += (f"\nautoscale: {self.resize_events} resizes "
                     f"({self.scale_downs} down / {self.scale_ups} "
                     f"up); {self.board_seconds:.3f} board-s paid"
                     + (f", {per_good * 1e3:.2f} board-ms per good job"
                        if math.isfinite(per_good) else ""))
        return text

    def to_experiment_result(self) -> ExperimentResult:
        """Render through the standard experiment-table machinery."""
        columns = ["jobs", "jobs_per_s", "p50_ms", "p95_ms", "p99_ms"]
        with_slo = any(w.slo_attainment is not None
                       for w in self.per_workload)
        if with_slo:
            columns += ["slo_pct", "rejected"]
        rows = []
        for w in self.per_workload:
            values = {
                "jobs": w.jobs, "jobs_per_s": w.throughput_jps,
                "p50_ms": w.p50_ms, "p95_ms": w.p95_ms,
                "p99_ms": w.p99_ms,
            }
            if with_slo:
                values["slo_pct"] = (100 * w.slo_attainment
                                     if w.slo_attainment is not None
                                     else "-")
                values["rejected"] = w.rejected
            rows.append(ExperimentRow(w.name, values))
        notes = (f"{self.jobs_done} jobs, "
                 f"{100 * self.device_utilization:.0f}% device busy, "
                 f"{100 * self.key_hit_rate:.0f}% key-cache hits, "
                 f"mean batch {self.mean_batch_size:.2f}")
        if with_slo:
            notes += (f"; policy {self.policy}, "
                      f"{self.rejected_jobs} rejected, "
                      f"{self.deferred_jobs} deferred, cost "
                      f"{self.cost_price_units * 1e3:.2f} price-unit-ms")
        return ExperimentResult(
            experiment_id=f"serve[{self.scenario}]",
            title="multi-tenant serving: throughput and tail latency",
            columns=columns,
            rows=rows,
            notes=notes)


#: Job outcome codes: the ``status`` column of :func:`build_report`.
#: ``DEGRADED`` completed on a smaller-than-planned gang;
#: ``SHED_DEGRADED`` was shed because no viable smaller gang existed.
DONE, DEGRADED, REJECTED, SHED, SHED_DEGRADED = range(5)


def _latency_ms(latencies: np.ndarray) -> Tuple[float, float, float, float]:
    """Exact nearest-rank ``(p50, p95, p99, mean)`` of one class's
    latencies, in ms (sorts ``latencies`` in place)."""
    count = latencies.size
    if count == 0:
        return (math.nan,) * 4
    # A sequential sum over the sorted list keeps the mean bit-stable
    # (numpy's pairwise summation would drift in the last ulp).
    latencies.sort()
    ordered = latencies.tolist()
    return (percentile(ordered, 50) * 1e3, percentile(ordered, 95) * 1e3,
            percentile(ordered, 99) * 1e3, sum(ordered) / count * 1e3)


def build_report(scenario: str, *,
                 arrival_s: np.ndarray, finish_s: np.ndarray,
                 deadline_s: np.ndarray, status: np.ndarray,
                 class_index: np.ndarray, class_names: Sequence[str],
                 tenant_index: np.ndarray, tenant_names: Sequence[str],
                 device_busy_s: Sequence[float],
                 device_jobs: Sequence[int], caches: Sequence,
                 batches: int, batched_jobs: int,
                 cost_price_units: float,
                 retries: Optional[np.ndarray] = None,
                 policy: str = "fifo", deferred_jobs: int = 0,
                 board_seconds: Optional[float] = None,
                 **counters) -> ServingReport:
    """Assemble a :class:`ServingReport` from per-job outcome columns.

    The one place the report rules live: both engines hand their
    outcomes here.  Each column has one row per job that left the
    system:

    * ``arrival_s`` and ``finish_s`` (NaN if the job never completed);
    * ``deadline_s``, the effective deadline (``inf`` when none);
    * ``status``, an outcome code (:data:`DONE` ...
      :data:`SHED_DEGRADED`);
    * ``class_index`` / ``tenant_index``, positions in
      ``class_names`` / ``tenant_names``;
    * ``retries``, re-enqueues per job (``None``: nothing retried).

    ``class_names`` is also the report order.  A class is reported
    only if it completed a job or had one rejected; the engines list
    classes by first completion in dispatch order, then rejected-only
    classes by first rejection.  Every rejected job and every
    deadline-carrying job that completed or was shed is in the SLO
    denominators (shedding never launders attainment); only completed
    jobs that met their deadline count as met.  Goodput counts every
    completed job that met its effective deadline.

    The run totals are per-device busy seconds and credited jobs, the
    device key caches (hit/miss/byte counters), batch counts, and the
    price-integrated cost.  ``board_seconds`` defaults to a fixed
    pool's ``makespan * devices``; ``counters`` (fault and autoscale
    counts) are copied onto the report.  Latency percentiles are exact
    nearest-rank over every completed job.
    """
    done = ~np.isnan(finish_s)
    makespan = float(np.max(finish_s, where=done, initial=0.0))
    rejected = status == REJECTED
    met = finish_s <= deadline_s  # NaN (never completed) compares False
    has_dl = np.isfinite(deadline_s)
    in_slo = has_dl | rejected
    met_slo = met & has_dl

    def count(mask: np.ndarray) -> int:
        return int(np.count_nonzero(mask))

    def tally(mask: np.ndarray, index: np.ndarray, size: int) -> List[int]:
        return np.bincount(index[mask], minlength=size).tolist()

    n_classes = len(class_names)
    done_c = tally(done, class_index, n_classes)
    rejected_c = tally(rejected, class_index, n_classes)
    slo_c = tally(in_slo, class_index, n_classes)
    met_c = tally(met_slo, class_index, n_classes)
    stats = []
    for c, name in enumerate(class_names):
        jobs = done_c[c]
        if not jobs and not rejected_c[c]:
            continue
        mine = done & (class_index == c)
        p50, p95, p99, mean = _latency_ms(finish_s[mine] - arrival_s[mine])
        stats.append(WorkloadStats(
            name=name, jobs=jobs,
            throughput_jps=jobs / makespan if makespan else 0.0,
            p50_ms=p50, p95_ms=p95, p99_ms=p99, mean_ms=mean,
            slo_attainment=met_c[c] / slo_c[c] if slo_c[c] else None,
            rejected=rejected_c[c]))
    slo_t = tally(in_slo, tenant_index, len(tenant_names))
    met_t = tally(met_slo, tenant_index, len(tenant_names))
    busy = sum(device_busy_s)
    hits = sum(cache.hits for cache in caches)
    misses = sum(cache.misses for cache in caches)
    total_slo = count(in_slo)
    num_devices = len(device_busy_s)
    return ServingReport(
        scenario=scenario,
        makespan_s=makespan,
        jobs_done=count(done),
        per_workload=stats,
        device_utilization=(busy / (makespan * num_devices)
                            if makespan else 0.0),
        key_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
        key_bytes_loaded=sum(cache.bytes_loaded for cache in caches),
        batches=batches,
        mean_batch_size=batched_jobs / batches if batches else 0.0,
        per_device_jobs=tuple(device_jobs),
        policy=policy,
        rejected_jobs=count(rejected),
        deferred_jobs=deferred_jobs,
        cost_price_units=cost_price_units,
        slo_attainment=(count(met_slo) / total_slo
                        if total_slo else None),
        per_tenant_slo=tuple(sorted(
            (tenant, met_t[t] / slo_t[t])
            for t, tenant in enumerate(tenant_names) if slo_t[t])),
        goodput_jps=count(met) / makespan if makespan else 0.0,
        retries=int(retries.sum()) if retries is not None else 0,
        shed_jobs=count(status == SHED),
        shed_degraded=count(status == SHED_DEGRADED),
        degraded_jobs=count(status == DEGRADED),
        board_seconds=(makespan * num_devices if board_seconds is None
                       else board_seconds),
        **counters)


def report_from_jobs(scenario: Scenario, completed: Sequence[Job],
                     devices: Sequence[DeviceState],
                     rejected: Sequence[Job] = (),
                     shed: Sequence[Job] = (),
                     **totals) -> ServingReport:
    """:func:`build_report` over the DES's job lists and devices.

    ``completed`` is in dispatch order and ``rejected`` in rejection
    order, which fixes the report's class order; ``totals`` are
    :func:`build_report`'s remaining keyword arguments.
    """
    n = len(completed) + len(rejected) + len(shed)

    def column(values: Iterable, dtype=np.float64) -> np.ndarray:
        return np.fromiter(values, dtype, count=n)

    def jobs() -> Iterator[Job]:
        return chain(completed, rejected, shed)

    class_ids: Dict[str, int] = {}
    class_index = column((class_ids.setdefault(job.job_class.name,
                                               len(class_ids))
                          for job in jobs()), np.int32)
    tenant_ids: Dict[str, int] = {}
    tenant_index = column((tenant_ids.setdefault(job.tenant,
                                                 len(tenant_ids))
                           for job in jobs()), np.int32)
    return build_report(
        scenario.name,
        arrival_s=column(job.arrival_s for job in jobs()),
        finish_s=column(chain((job.finish_s for job in completed),
                              repeat(math.nan, n - len(completed)))),
        deadline_s=column(job.effective_deadline_s for job in jobs()),
        status=column(chain(
            (DEGRADED if job.degraded else DONE for job in completed),
            repeat(REJECTED, len(rejected)),
            (SHED_DEGRADED if job.shed_reason == "degraded" else SHED
             for job in shed)), np.int8),
        class_index=class_index, class_names=list(class_ids),
        tenant_index=tenant_index, tenant_names=list(tenant_ids),
        retries=column((job.retries for job in jobs()), np.int32),
        device_busy_s=[d.busy_s for d in devices],
        device_jobs=[d.jobs_done for d in devices],
        caches=[d.cache for d in devices],
        **totals)


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------

def key_load_seconds(host: HostConfig, miss_bytes: int) -> float:
    """Host -> HBM switching-key transfer over PCIe.

    The one place the PCIe cost model lives: the simulator's service
    arithmetic, the policies' admission bounds, and the default SLO
    heuristic all price key traffic through this function, so they
    cannot drift apart.  The fast engine calls it once per stream at
    set-up for its cold admission bound; its admission preview and
    batch launch repeat the same expression inline (per-batch hot
    path), and the fast-vs-DES parity suite pins them to equal floats.
    The result never falls as ``miss_bytes`` grows, which is what
    makes the cold load a bound on every preview.
    """
    if miss_bytes == 0:
        return 0.0
    return (miss_bytes / (host.pcie_gbytes_per_sec * 1e9)
            + host.pcie_latency_s)


class ServingSimulator:
    """Event-driven serving across a FAB device pool."""

    def __init__(self, config: Optional[FabConfig] = None,
                 num_devices: int = 8,
                 key_cache_bytes: Optional[int] = None,
                 host: Optional[HostConfig] = None,
                 max_batch: int = 8):
        if num_devices < 1:
            raise ValueError("need at least one device")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if key_cache_bytes is not None and key_cache_bytes <= 0:
            raise ValueError("key_cache_bytes must be positive (a "
                             "zero-capacity key cache cannot hold any "
                             "working set)")
        self.config = config or FabConfig()
        self.host = host or HostConfig()
        self.num_devices = num_devices
        self.max_batch = max_batch
        if key_cache_bytes is None:
            # Keys may occupy HBM not reserved for ciphertexts and
            # scratch: a quarter of the 8 GB by default.
            key_cache_bytes = HbmModel(self.config).capacity_bytes // 4
        self.key_cache_bytes = key_cache_bytes

    # ------------------------------------------------------------------

    def service_bound_s(self, job_class: JobClass,
                        batch_size: int) -> float:
        """Conservative upper bound on one batch's service time.

        Launch overhead + the worst-case key load (every key of one
        board's replica misses) + compute.  The actual service time
        never exceeds this — misses load at most the full working
        set — so admission decisions made against the bound are safe:
        an admitted batch can only finish earlier than predicted.
        """
        return (self.host.kernel_launch_overhead_s
                + key_load_seconds(self.host, job_class.key_bytes)
                + batch_size * job_class.seconds(self.config))

    def best_case_service_s(self, job_class: JobClass,
                            batch_size: int) -> float:
        """Lower bound on one batch's service time: launch overhead +
        compute with every switching key already resident.  No board
        can serve the batch faster, so a deadline missed even against
        this bound is infeasible pool-wide — the admission-control
        policies use it to make rejection final rather than
        board-local."""
        return (self.host.kernel_launch_overhead_s
                + batch_size * job_class.seconds(self.config))

    def run(self, scenario: Scenario, seed: int = 0,
            policy="fifo",
            price: Optional[PriceSignal] = None,
            recorder: Optional[Recorder] = None,
            engine: str = "des",
            arrival_mode: str = "exact",
            faults=None,
            retry=None,
            autoscale=None) -> ServingReport:
        """Simulate one scenario; returns the aggregated report.

        ``engine`` selects the event core: ``"des"`` (the
        discrete-event loop,
        :func:`repro.runtime.membership.run_with_ledger`) or
        ``"fast"`` (the vectorized engine in
        :mod:`repro.runtime.fast_engine`, same semantics at ~10x the
        event rate; the parity suite holds its reports to the DES
        oracle on shared arrival sequences).  ``arrival_mode`` tunes
        the fast engine only: chunked exact (the default) or
        numpy-vectorized arrival generation.

        The DES is driven by two event sources merged per dispatch: a
        heap of device-completion times and the time-sorted arrival
        list (consumed by an O(1)-amortized cursor).  *Which* queued
        batch a free device takes — and whether a job is admitted at
        all — is delegated to ``policy`` (a name from
        :data:`repro.runtime.policies.POLICIES` or a policy
        instance); a policy may also defer, leaving the device idle
        until the next arrival, price change, or forced start.
        ``price`` is the time-varying price/carbon signal the
        ``deferrable-window`` policy schedules around and every
        report's ``cost_price_units`` integrates (default: flat 1.0,
        making cost equal busy device-seconds).

        ``faults`` (a :class:`repro.runtime.faults.FaultProcess` or a
        spec string like ``"poisson:mtbf=2,mttr=0.2"``) injects
        board-down/board-up events; ``retry`` (a
        :class:`repro.runtime.faults.RetryPolicy` or spec, default
        ``"none"``) decides what happens to jobs whose batch a fault
        killed.

        ``autoscale`` (a :class:`repro.runtime.autoscaler.ScalePolicy`
        or spec string like ``"reactive:low=0.3,high=0.85"``) turns on
        voluntary pool elasticity: boards drain out of service when
        the policy scales down (key cache evicted) and return cold on
        scale-up.

        ``faults`` and ``autoscale`` — alone or combined — are
        DES-only.  A :class:`repro.runtime.membership.PoolLedger`
        arbitrates the two mechanisms (a fault completes a drain
        without double-evicting the key cache; a parked spare rejoins
        only when the scaler wants it; spares absorb failures before
        gangs re-stripe).  With both ``None`` the ledger loop skips
        every membership construct and serves the fixed pool
        (golden-pinned).

        ``recorder`` (a :class:`repro.obs.Recorder`) observes the run:
        arrivals, rejections, batch services, deferral windows, and
        queue depths.  Observation never perturbs the simulation —
        with no recorder (or a disabled one, e.g.
        :class:`repro.obs.NullRecorder`) the guarded hooks are skipped
        entirely and the report is bit-identical to an unrecorded
        run, which the regression suite asserts.

        Under the default ``fifo`` policy the DES schedule is
        bit-identical to the original frontier-scanning loop, whose
        reports the test suite pins as goldens.
        """
        for stream in scenario.streams:
            if stream.job_class.num_fpgas > self.num_devices:
                raise ValueError(
                    f"job class {stream.job_class.name!r} stripes over "
                    f"{stream.job_class.num_fpgas} boards but the pool "
                    f"has {self.num_devices}")
        if retry is not None and faults is None:
            raise ValueError(
                "a retry policy only applies under fault injection; "
                "pass faults= as well")
        if engine == "fast":
            if faults is not None or autoscale is not None:
                raise ValueError(
                    "pool-membership changes (faults/autoscale) "
                    "require engine='des'; the fast engine is a "
                    "fixed-pool parity oracle")
            from .fast_engine import run_fast
            return run_fast(self, scenario, seed=seed, policy=policy,
                            price=price, recorder=recorder,
                            arrival_mode=arrival_mode)
        if engine != "des":
            raise ValueError(f"unknown engine {engine!r}; "
                             f"try: {', '.join(ENGINES)}")
        if arrival_mode != "exact":
            raise ValueError(
                "the DES engine always generates arrivals exactly; "
                "arrival_mode applies to engine='fast' only")
        from .membership import run_with_ledger
        return run_with_ledger(
            self, scenario, seed=seed, policy=policy, price=price,
            recorder=recorder, faults=faults, retry=retry,
            autoscale=autoscale)


# ----------------------------------------------------------------------
# Canned scenarios
# ----------------------------------------------------------------------

def build_job_classes(config: Optional[FabConfig] = None,
                      training_stripe: int = 1
                      ) -> Dict[str, JobClass]:
    """The serving workloads, lowered from the reference traces.

    ``training_stripe > 1`` stripes the training job FAB-2 style: the
    bootstrap stays serial on the gang master, the 32 per-ciphertext
    gradient blocks split across ``training_stripe`` boards, and each
    training job gang-occupies the whole stripe.
    """
    from .reference import (analytics_trace, lr_inference_trace,
                            lr_training_trace)
    config = config or FabConfig()
    # One training step = sparse bootstrap + the update phase (§5.5);
    # the trace and its striping plan are the canonical ones in
    # reference.py, shared with the stripe-scale sweep.
    training, plan = lr_training_trace(config)
    return {
        "lr_inference": JobClass.from_trace(lr_inference_trace(), config),
        "lr_training": JobClass.from_trace(
            training, config, num_fpgas=training_stripe, plan=plan),
        "analytics": JobClass.from_trace(analytics_trace(), config),
    }


def build_scenarios(config: Optional[FabConfig] = None,
                    num_devices: int = 8,
                    duration_s: float = 2.0,
                    target_load: float = 0.6,
                    training_stripe: int = 1
                    ) -> Dict[str, Scenario]:
    """Standard scenarios, with rates scaled to the pool capacity.

    ``target_load`` is the offered load as a fraction of aggregate
    device compute capacity, so scenarios remain stable (queues drain)
    for any config / pool size.  ``training_stripe`` stripes the
    training workload across that many boards per job (see
    :func:`build_job_classes`).
    """
    config = config or FabConfig()
    classes = build_job_classes(config, training_stripe=training_stripe)

    def rate(job_class: JobClass, load: float) -> float:
        # A striped job consumes num_fpgas boards at once, so the
        # per-job capacity share scales down accordingly.
        return (load * num_devices
                / (job_class.seconds(config) * job_class.num_fpgas))

    interactive = Scenario("interactive", duration_s, [
        Stream(classes["lr_inference"],
               rate(classes["lr_inference"], target_load),
               num_tenants=8, tenant_prefix="user"),
    ])
    batch = Scenario("batch", duration_s, [
        Stream(classes["lr_training"],
               rate(classes["lr_training"], target_load),
               num_tenants=2, tenant_prefix="trainer"),
    ])
    analytics = Scenario("analytics", duration_s, [
        Stream(classes["analytics"],
               rate(classes["analytics"], target_load),
               num_tenants=4, tenant_prefix="org"),
    ])
    share = target_load / 3.0
    mixed = Scenario("mixed", duration_s, [
        Stream(classes["lr_inference"],
               rate(classes["lr_inference"], share),
               num_tenants=8, tenant_prefix="user"),
        Stream(classes["lr_training"],
               rate(classes["lr_training"], share),
               num_tenants=2, tenant_prefix="trainer"),
        Stream(classes["analytics"],
               rate(classes["analytics"], share),
               num_tenants=4, tenant_prefix="org"),
    ])
    return {"interactive": interactive, "batch": batch,
            "analytics": analytics, "mixed": mixed}


def default_interactive_slo_ms(job_class: JobClass,
                               config: FabConfig,
                               host: Optional[HostConfig] = None,
                               slack: float = 3.0) -> float:
    """SLO heuristic for interactive traffic: ``slack`` x the
    single-job *cold-start* service time (launch overhead + a full
    switching-key working-set load over PCIe + compute).

    The cold key load dominates FHE service times (hundreds of MB of
    switching keys vs milliseconds of compute), so an SLO keyed to
    compute alone would be unmeetable even on an idle board.  Keying
    it to the cold bound is scale-free across configs: a lightly
    loaded pool meets it comfortably, an overloaded one visibly
    misses it."""
    host = host or HostConfig()
    cold_s = (host.kernel_launch_overhead_s
              + key_load_seconds(host, job_class.key_bytes)
              + job_class.seconds(config))
    return slack * cold_s * 1e3


def build_slo_scenario(config: Optional[FabConfig] = None,
                       num_devices: int = 8,
                       duration_s: float = 1.0,
                       target_load: float = 0.9,
                       interactive_fraction: float = 0.7,
                       interactive_slo_ms: Optional[float] = None,
                       batch_window_s: Optional[float] = None,
                       training_stripe: int = 1,
                       host: Optional[HostConfig] = None) -> Scenario:
    """An SLO-annotated two-tier scenario: interactive + deferrable.

    Latency-sensitive inference traffic carries a per-job deadline
    (``interactive_slo_ms``, defaulting to
    :func:`default_interactive_slo_ms` — 3x its cold-start service
    bound) while
    throughput-oriented batch work is ``deferrable`` inside a
    ``batch_window_s`` execution window after arrival (default: the
    arrival horizon, so a diurnal price signal always exposes a cheap
    slot inside the window).  ``interactive_fraction`` splits the
    offered load between the tiers; ``training_stripe > 1`` swaps the
    batch tier to the gang-scheduled striped training class, so the
    scenario exercises policy x gang composition.  When the simulator
    runs with a non-default :class:`HostConfig` (different PCIe
    numbers), pass the same ``host`` here so the default SLO prices
    the cold key load with the cost model that will actually serve
    the jobs.
    """
    if not 0.0 <= interactive_fraction <= 1.0:
        raise ValueError("interactive_fraction must be in [0, 1]")
    config = config or FabConfig()
    classes = build_job_classes(config, training_stripe=training_stripe)
    inference = classes["lr_inference"]
    batch_class = (classes["lr_training"] if training_stripe > 1
                   else classes["analytics"])
    if interactive_slo_ms is None:
        interactive_slo_ms = default_interactive_slo_ms(inference, config,
                                                        host=host)
    if batch_window_s is None:
        batch_window_s = max(duration_s, 1e-3)

    def rate(job_class: JobClass, load: float) -> float:
        return (load * num_devices
                / (job_class.seconds(config) * job_class.num_fpgas))

    streams = []
    interactive_load = target_load * interactive_fraction
    if interactive_load > 0:
        # Two interactive tenants: both working sets fit the default
        # per-board key cache, so misses reflect scheduling (tenant
        # interleaving), not unavoidable capacity thrash.
        streams.append(Stream(
            inference, rate(inference, interactive_load),
            num_tenants=2, tenant_prefix="user",
            slo_ms=interactive_slo_ms))
    batch_load = target_load * (1.0 - interactive_fraction)
    if batch_load > 0:
        streams.append(Stream(
            batch_class, rate(batch_class, batch_load),
            num_tenants=2, tenant_prefix="batch",
            deferrable=True, window_s=batch_window_s))
    if not streams:
        raise ValueError("target_load must be positive")
    return Scenario("slo_mixed", duration_s, streams)
