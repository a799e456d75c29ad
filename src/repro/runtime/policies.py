"""Admission and scheduling policies for the serving simulator.

The serving simulator (:mod:`repro.runtime.serving`) dispatches work
from per-(class, tenant) FIFO queues onto free FAB boards.  *Which*
queue runs next — and whether a queued job should run at all — is a
policy decision, pluggable through this module:

* ``fifo`` — :class:`FifoPolicy`: oldest queue head first.  This is
  the pre-policy dispatch order, bit-identical to the original event
  loop (the regression suite pins that loop's reports as goldens).
* ``edf`` — :class:`EdfPolicy`: earliest effective deadline first,
  with admission control.  A batch is admitted only when its exact
  dispatch-time service preview meets every member's deadline from
  the batch's start time; a head that misses only because *this*
  board's key cache is cold stays queued for a warmer board, while a
  job that cannot meet its SLO even best-case (keys resident, solo)
  is rejected instead of poisoning the queue behind it.  For a
  striped job class the start time is the *gang* start — all
  ``num_fpgas`` boards must be free and able to meet the deadline.
* ``deferrable-window`` — :class:`DeferrableWindowPolicy`: two-tier
  scheduling in the style of carbon/price-aware deferrable workload
  systems (cf. pennsail/cr).  Interactive traffic owns the pool;
  ``deferrable`` batch jobs wait for cheap slots of a time-varying
  :class:`PriceSignal` and are force-started just in time to finish
  inside their execution window, so deferral never starves a batch
  job past its window end.

Policies never look inside the device pool: the simulator hands them
a :class:`DispatchView` per freed board — ``now``, a ``gang_start``
oracle, and an exact dispatch-time service preview (the gang's
key-cache state peeked without mutation) — plus a run-scoped
:class:`PolicyContext` with a conservative cold-key service bound for
decisions made away from a board (forced starts).  Every completed
job admitted by a deadline-checking policy therefore finishes by its
deadline under the simulator clock — the property the hypothesis
suite in ``tests/runtime/test_policies.py`` hammers on.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from ..obs import NULL_RECORDER, Recorder
from .specs import SpecError

if TYPE_CHECKING:
    from .serving import Job, JobClass


# ----------------------------------------------------------------------
# Time-varying price / carbon signal
# ----------------------------------------------------------------------


class PriceSignal:
    """A piecewise-constant, periodic price (or carbon) signal.

    ``levels[i]`` is the cost per device-second during slot ``i``;
    slots are ``slot_s`` seconds wide and the pattern repeats every
    ``len(levels) * slot_s`` seconds.  A slot is *cheap* when its
    level is at or below ``cheap_threshold`` (default: the minimum
    level, so at least one slot per period is always cheap — which is
    what guarantees deferrable scheduling makes progress).
    """

    def __init__(
        self,
        levels: Tuple[float, ...] = (1.0,),
        slot_s: float = 1.0,
        cheap_threshold: Optional[float] = None,
    ):
        levels = tuple(float(level) for level in levels)
        if not levels:
            raise ValueError("need at least one price level")
        if any(level < 0 for level in levels):
            raise ValueError("price levels must be non-negative")
        if slot_s <= 0:
            raise ValueError("slot_s must be positive")
        if cheap_threshold is not None and cheap_threshold < min(levels):
            # The deferrable tier's progress guarantee (and
            # next_cheap's contract) requires at least one cheap slot
            # per period; a threshold below every level would make
            # deferral wait forever.
            raise ValueError(
                f"cheap_threshold {cheap_threshold:g} is below the "
                f"cheapest level {min(levels):g}: no slot would ever "
                f"be cheap")
        self.levels = levels
        self.slot_s = float(slot_s)
        self.cheap_threshold = (
            min(levels) if cheap_threshold is None else float(cheap_threshold)
        )
        self._flat = len(set(levels)) == 1

    @classmethod
    def flat(cls, price: float = 1.0) -> "PriceSignal":
        """A constant signal (the default: every instant is cheap)."""
        return cls((price,))

    @classmethod
    def diurnal(
        cls,
        peak: float = 2.0,
        trough: float = 0.5,
        slot_s: float = 0.25,
    ) -> "PriceSignal":
        """A square wave: an expensive half-period, then a cheap one."""
        return cls((peak, trough), slot_s=slot_s)

    @property
    def period_s(self) -> float:
        return len(self.levels) * self.slot_s

    def _slot(self, t: float) -> int:
        t = max(t, 0.0)
        slot = int(t // self.slot_s)
        # Float floor-division can attribute an exact slot boundary to
        # the slot *before* it (e.g. 0.125 // 0.025 == 4.0 because the
        # float 0.025 is a hair above 1/40), which would make
        # ``integral`` loop forever at ``upper == t`` and
        # ``next_change`` return a time not strictly after ``t``.  A
        # boundary instant belongs to the slot it opens.
        if (slot + 1) * self.slot_s <= t:
            slot += 1
        return slot

    def price_at(self, t: float) -> float:
        return self.levels[self._slot(t) % len(self.levels)]

    def is_cheap(self, t: float) -> bool:
        return self.price_at(t) <= self.cheap_threshold

    def price_at_array(self, t):
        """Vectorized :meth:`price_at` over a numpy array of times.

        Element-for-element equal to the scalar version, including
        its slot-boundary correction, so vectorized consumers (the
        fleet examples, analysis notebooks) can reconcile against
        event-loop accounting exactly.
        """
        import numpy as np

        t = np.maximum(np.asarray(t, dtype=np.float64), 0.0)
        slot = (t // self.slot_s).astype(np.int64)
        slot[(slot + 1) * self.slot_s <= t] += 1
        return np.asarray(self.levels)[slot % len(self.levels)]

    def is_cheap_array(self, t):
        """Vectorized :meth:`is_cheap` over a numpy array of times."""
        return self.price_at_array(t) <= self.cheap_threshold

    def next_change(self, t: float) -> float:
        """Earliest time strictly after ``t`` with a different price
        (``inf`` for a flat signal)."""
        if self._flat:
            return math.inf
        slot = self._slot(t)
        here = self.levels[slot % len(self.levels)]
        for ahead in range(1, len(self.levels) + 1):
            if self.levels[(slot + ahead) % len(self.levels)] != here:
                return (slot + ahead) * self.slot_s
        return math.inf

    def next_cheap(self, t: float) -> float:
        """Earliest time at or after ``t`` that is cheap (``t`` itself
        when the current slot already is)."""
        at = max(t, 0.0)
        for _ in range(len(self.levels) + 1):
            if self.is_cheap(at):
                return max(at, t)
            at = self.next_change(at)
        return at

    def integral(self, t0: float, t1: float) -> float:
        """Exact integral of the price over ``[t0, t1]``."""
        if t1 <= t0:
            return 0.0
        if self._flat:
            return (t1 - t0) * self.levels[0]
        total = 0.0
        t = t0
        while t < t1:
            slot = self._slot(t)
            upper = min((slot + 1) * self.slot_s, t1)
            if upper <= t:  # pragma: no cover — _slot guarantees progress
                upper = t1
            total += (upper - t) * self.levels[slot % len(self.levels)]
            t = upper
        return total

    def __repr__(self) -> str:
        return (
            f"PriceSignal(levels={self.levels}, slot_s={self.slot_s:g})"
        )


# ----------------------------------------------------------------------
# The simulator-facing contract
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyContext:
    """What the simulator exposes to a policy for one run.

    ``service_bound_s(job_class, batch_size)`` is an *upper* bound on
    the service time of a batch (launch overhead + worst-case
    cold-key load + compute), so decisions made against it without
    device context — e.g. a deferrable job's forced start — are
    conservative: the actual batch can only finish earlier than the
    bound predicts.  ``best_case_s(job_class, batch_size)`` is the
    matching *lower* bound (launch + compute, every key resident):
    a job that misses its deadline even against it is infeasible on
    any board, so rejecting it is final rather than board-local.
    """

    max_batch: int
    price: PriceSignal
    service_bound_s: Callable[["JobClass", int], float]
    best_case_s: Callable[["JobClass", int], float]
    reject: Callable[["Job"], None]
    #: Observes policy decision points (skips, deferrals, forced
    #: starts); disabled by default, and policies must gate every hook
    #: on ``recorder.enabled`` so unobserved runs stay bit-identical.
    recorder: Recorder = NULL_RECORDER


@dataclass
class DispatchView:
    """One dispatch opportunity: a board freed up at ``now``.

    ``gang_start(k)`` is the earliest time a gang of ``k`` boards
    (this one plus the ``k - 1`` next free) could all start.
    ``service_s(job, batch_size)`` is the *exact* service time a
    batch led by ``job`` would take if dispatched right now: the
    simulator previews the gang's key-cache state without mutating
    it, so an admission test against this oracle is tight — an
    admitted batch finishes exactly when predicted.  The preview is
    the costly part of admission, so policies consult it only when
    the cold bound (``PolicyContext.service_bound_s``) cannot decide.

    The simulator reuses one instance across dispatches (updating it
    in place on its hot loop), so a view is only valid for the
    duration of the ``next_batch`` call it was passed to — policies
    must not retain it.
    """

    now: float
    gang_start: Callable[[int], float]
    service_s: Callable[["Job", int], float]


class SchedulingPolicy:
    """Base class: queue discipline + admission for the simulator.

    Lifecycle: the simulator calls :meth:`begin` once per run, feeds
    arrivals through :meth:`enqueue`, and asks :meth:`next_batch`
    whenever a board frees up.  ``next_batch`` may return ``None`` to
    leave the board idle; the simulator then sleeps it until the next
    arrival or :meth:`next_event_s`, whichever is earlier.
    """

    name = "base"

    def begin(self, ctx: PolicyContext) -> None:
        self.ctx = ctx

    def enqueue(self, job: "Job") -> None:
        raise NotImplementedError

    @property
    def pending(self) -> int:
        """Number of queued (not yet dispatched or rejected) jobs."""
        raise NotImplementedError

    def next_batch(self, view: DispatchView) -> Optional[List["Job"]]:
        """Pick the next batch (same class + tenant) to dispatch.

        Returning ``None`` defers: nothing should run on this board
        right now.
        """
        raise NotImplementedError

    def next_event_s(self, now: float) -> float:
        """When to re-evaluate after a deferral (``inf``: arrivals
        only).  Must be strictly greater than ``now`` whenever jobs
        are pending, or the simulator could not make progress."""
        return math.inf

    @property
    def deferred_jobs(self) -> int:
        """Distinct jobs this policy has explicitly held back."""
        return 0

    @property
    def deferral_events(self) -> int:
        """Decision points at which queued work was held back."""
        return 0

    def queue_depths(self) -> Dict[Tuple[str, str], int]:
        """Pending jobs per (class, tenant) queue — recorder food,
        only called when a recorder is live."""
        return {}


# ----------------------------------------------------------------------
# Queue bookkeeping shared by every policy
# ----------------------------------------------------------------------


class _QueueSet:
    """Per-(class, tenant) FIFO queues under one priority head-heap.

    ``priority(job)`` maps a queue head to a totally ordered tuple;
    the heap is lazily invalidated (entries whose job was swept into
    an earlier batch are discarded on pop), so a dispatch costs
    O(log) rather than a scan over every queue — the same structure
    the pre-policy event loop used, generalized over the key.
    """

    def __init__(self, priority: Callable[["Job"], Tuple]):
        self.priority = priority
        self._queues: Dict[Tuple[str, str], Deque["Job"]] = {}
        self._seq: Dict[Tuple[str, str], int] = {}
        self._heads: List[Tuple] = []
        self.pending = 0

    def enqueue(self, job: "Job") -> None:
        key = (job.job_class.name, job.tenant)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
            self._seq[key] = len(self._seq)
        queue.append(job)
        if len(queue) == 1:
            self._push(key, job)
        self.pending += 1

    def _push(self, key: Tuple[str, str], job: "Job") -> None:
        entry = (*self.priority(job), self._seq[key], key, job.job_id)
        heapq.heappush(self._heads, entry)

    def pop_valid(self):
        """Pop the best live queue: ``(key, queue)`` or ``None``."""
        while self._heads:
            entry = heapq.heappop(self._heads)
            key, job_id = entry[-2], entry[-1]
            queue = self._queues[key]
            if queue and queue[0].job_id == job_id:
                return key, queue
        return None

    def peek_priority(self) -> Optional[Tuple]:
        """Priority tuple of the best live head (``None`` if empty)."""
        while self._heads:
            entry = self._heads[0]
            key, job_id = entry[-2], entry[-1]
            queue = self._queues[key]
            if queue and queue[0].job_id == job_id:
                return entry[:-3]
            heapq.heappop(self._heads)
        return None

    def requeue_head(self, key: Tuple[str, str]) -> None:
        queue = self._queues[key]
        if queue:
            self._push(key, queue[0])

    def take(self, queue: Deque["Job"], count: int) -> List["Job"]:
        batch = [queue.popleft() for _ in range(count)]
        self.pending -= count
        return batch

    def reject_head(
        self,
        queue: Deque["Job"],
        reject: Callable[["Job"], None],
    ) -> None:
        job = queue.popleft()
        self.pending -= 1
        job.rejected = True
        reject(job)

    def depths(self) -> Dict[Tuple[str, str], int]:
        """Live queue lengths (empty queues omitted)."""
        return {key: len(queue)
                for key, queue in self._queues.items() if queue}

    def __bool__(self) -> bool:
        return self.pending > 0


def _edf_priority(job: "Job") -> Tuple[float, float]:
    return (job.effective_deadline_s, job.arrival_s)


def _edf_admit(
    qset: _QueueSet,
    ctx: PolicyContext,
    view: DispatchView,
    urgent_only: bool = False,
) -> Optional[List["Job"]]:
    """Deadline-checked admission from one queue set.

    Pops the most urgent live queue and trims its batch to the
    largest size whose exact dispatch-time finish still meets every
    member's effective deadline from the gang start (all members of
    a batch finish together, and a later-arriving member may carry a
    *tighter* SLO than the head, so the binding deadline is the
    prefix minimum).  The exact finish needs a key-cache preview
    (``view.service_s``), which is consulted only when the cold bound
    (``ctx.service_bound_s``: every key missing) cannot decide: the
    preview never exceeds that bound, so a batch that fits even cold
    is taken untrimmed with no cache read.  A head that misses its
    deadline on *this* board is not necessarily infeasible — this
    board's key cache may simply be cold — so it is rejected only
    when even the best-case service (``ctx.best_case_s``: launch +
    compute, keys resident) from the earliest possible start misses,
    which no board can beat; otherwise the head is *skipped* (left
    queued for a warmer board or a later dispatch) and the scan moves
    to the next queue.
    With ``urgent_only``, heads whose priority lies in the future
    are left queued (the deferrable tier's "forced start" gate) and
    a miss is *final*: the forced start was computed from the
    conservative service bound as the last safe start, so a head
    that can no longer make its window on this board must be
    rejected, not skipped — lingering past the forced start gambles
    the window away while head-of-line-blocking the jobs behind it.
    """
    skipped: List[Tuple[str, str]] = []
    try:
        while True:
            popped = qset.pop_valid()
            if popped is None:
                return None
            key, queue = popped
            head = queue[0]
            if urgent_only and qset.priority(head)[0] > view.now:
                qset.requeue_head(key)
                return None
            size = min(ctx.max_batch, len(queue))
            # prefix_min[i]: tightest effective deadline among the
            # first i + 1 queued jobs — the deadline a batch of size
            # i + 1 must meet, since the whole batch shares one
            # finish time.
            prefix_min: List[float] = []
            for index in range(size):
                deadline = queue[index].effective_deadline_s
                if prefix_min and prefix_min[-1] < deadline:
                    deadline = prefix_min[-1]
                prefix_min.append(deadline)
            if prefix_min and prefix_min[size - 1] != math.inf:
                start = view.gang_start(head.job_class.num_fpgas)
                # A preview can only lower the load below a cold one,
                # so a batch that fits cold is taken untrimmed with no
                # key-cache read.
                if (start + ctx.service_bound_s(head.job_class, size)
                        > prefix_min[size - 1]):
                    while size and (
                        prefix_min[size - 1] != math.inf
                        and start + view.service_s(head, size)
                        > prefix_min[size - 1]
                    ):
                        size -= 1
                    if size == 0:
                        deadline = head.effective_deadline_s
                        if urgent_only or (
                            start + ctx.best_case_s(head.job_class, 1)
                            > deadline
                        ):
                            # Final rejection: infeasible on any
                            # board, or past the forced start (see
                            # docstring).
                            qset.reject_head(queue, ctx.reject)
                            qset.requeue_head(key)
                        else:
                            # Only this board (cold keys) misses:
                            # leave the job queued for a warmer/later
                            # dispatch.
                            skipped.append(key)
                            if ctx.recorder.enabled:
                                ctx.recorder.policy_event(
                                    t=view.now, name="skip cold board",
                                    job_class=key[0], tenant=key[1],
                                    job_id=head.job_id)
                        continue
            batch = qset.take(queue, size)
            qset.requeue_head(key)
            return batch
    finally:
        for key in skipped:
            qset.requeue_head(key)


# ----------------------------------------------------------------------
# The policies
# ----------------------------------------------------------------------


class FifoPolicy(SchedulingPolicy):
    """Oldest queue head first: today's dispatch order, exactly.

    The head-heap entries are ``(arrival, queue-creation-order, key,
    job-id)`` — the same ordering the pre-policy event loop used —
    so a run under this policy reproduces that loop's reports bit for
    bit (``tests/runtime/data/golden_fifo_baseline.json``).
    """

    name = "fifo"

    def begin(self, ctx: PolicyContext) -> None:
        super().begin(ctx)
        self._queues = _QueueSet(lambda job: (job.arrival_s,))

    def enqueue(self, job: "Job") -> None:
        self._queues.enqueue(job)

    @property
    def pending(self) -> int:
        return self._queues.pending

    def next_batch(self, view: DispatchView) -> Optional[List["Job"]]:
        popped = self._queues.pop_valid()
        if popped is None:
            return None
        key, queue = popped
        size = min(self.ctx.max_batch, len(queue))
        batch = self._queues.take(queue, size)
        self._queues.requeue_head(key)
        return batch

    def queue_depths(self) -> Dict[Tuple[str, str], int]:
        return self._queues.depths()


class EdfPolicy(SchedulingPolicy):
    """Earliest deadline first with conservative admission control.

    Jobs without annotations carry an infinite effective deadline, so
    on an unannotated scenario EDF orders exactly like FIFO (the
    regression suite asserts bit-identical reports).
    """

    name = "edf"

    def begin(self, ctx: PolicyContext) -> None:
        super().begin(ctx)
        self._queues = _QueueSet(_edf_priority)

    def enqueue(self, job: "Job") -> None:
        self._queues.enqueue(job)

    @property
    def pending(self) -> int:
        return self._queues.pending

    def next_batch(self, view: DispatchView) -> Optional[List["Job"]]:
        return _edf_admit(self._queues, self.ctx, view)

    def queue_depths(self) -> Dict[Tuple[str, str], int]:
        return self._queues.depths()


class DeferrableWindowPolicy(SchedulingPolicy):
    """Two-tier price-aware scheduling with execution windows.

    Interactive jobs are served EDF-with-admission.  ``deferrable``
    jobs wait: they run during cheap slots of the price signal, yield
    to interactive traffic otherwise, and are force-started when
    waiting any longer would push them past their window end (the
    *forced start*: window end minus the conservative single-job
    service bound).  A deferrable job whose window cannot be met even
    by an immediate solo run is rejected, never silently starved.
    """

    name = "deferrable-window"

    def begin(self, ctx: PolicyContext) -> None:
        super().begin(ctx)
        self._interactive = _QueueSet(_edf_priority)
        self._deferrable = _QueueSet(
            lambda job: (self._forced_start_s(job), job.arrival_s)
        )
        self._deferred_ids = set()
        self._deferral_events = 0
        #: job_id -> deferral-event count at enqueue; a batch job was
        #: "held back" iff a deferral decision happened while it was
        #: queued, i.e. the count grew past its stamp.
        self._enqueue_stamp: Dict[int, int] = {}
        self._events_at_entry = 0
        self._batch_ctx = replace(ctx, reject=self._reject_deferrable)

    def _forced_start_s(self, job: "Job") -> float:
        window_end = job.effective_deadline_s
        if window_end == math.inf:
            return math.inf
        return window_end - self.ctx.service_bound_s(job.job_class, 1)

    def enqueue(self, job: "Job") -> None:
        if job.deferrable:
            self._enqueue_stamp[job.job_id] = self._deferral_events
            self._deferrable.enqueue(job)
        else:
            self._interactive.enqueue(job)

    @property
    def pending(self) -> int:
        return self._interactive.pending + self._deferrable.pending

    @property
    def deferred_jobs(self) -> int:
        return len(self._deferred_ids)

    @property
    def deferral_events(self) -> int:
        return self._deferral_events

    def _mark_deferred(self, now: float) -> None:
        self._deferral_events += 1
        if self.ctx.recorder.enabled:
            self.ctx.recorder.policy_event(
                t=now, name="defer batch tier",
                pending=self._deferrable.pending,
                cheap=self.ctx.price.is_cheap(now))

    def _note_held_back(self, job: "Job") -> None:
        """Mark a batch job that waited through >= 1 deferral event.

        Measured against the event count at the *start* of the
        current ``next_batch`` call: a deferral decision made moments
        ago in this same call (e.g. step 2 yielding to interactive
        work that then turned out unserviceable) did not hold this
        job back — it is dispatching at its first real opportunity.
        """
        stamp = self._enqueue_stamp.pop(job.job_id, None)
        if stamp is not None and stamp < self._events_at_entry:
            if job.job_id not in self._deferred_ids:
                self._deferred_ids.add(job.job_id)
                job.deferred = True

    def _reject_deferrable(self, job: "Job") -> None:
        self._note_held_back(job)
        self.ctx.reject(job)

    def _batch_admit(self, view: DispatchView,
                     urgent_only: bool = False
                     ) -> Optional[List["Job"]]:
        batch = _edf_admit(
            self._deferrable, self._batch_ctx, view,
            urgent_only=urgent_only,
        )
        if batch is not None:
            for job in batch:
                self._note_held_back(job)
        return batch

    def next_batch(self, view: DispatchView) -> Optional[List["Job"]]:
        self._events_at_entry = self._deferral_events
        # 1. Batch jobs that cannot wait any longer run first: their
        #    forced start has arrived, so one more deferral would push
        #    them past their window end.
        priority = self._deferrable.peek_priority()
        if priority is not None and priority[0] <= view.now:
            batch = self._batch_admit(view, urgent_only=True)
            if batch is not None:
                if self.ctx.recorder.enabled:
                    self.ctx.recorder.policy_event(
                        t=view.now, name="forced start",
                        job_class=batch[0].job_class.name,
                        tenant=batch[0].tenant, batch=len(batch))
                return batch
        # 2. Interactive traffic owns the pool otherwise.
        if self._interactive.pending:
            if self._deferrable.pending:
                self._mark_deferred(view.now)
            batch = _edf_admit(self._interactive, self.ctx, view)
            if batch is not None:
                return batch
        # 3. Remaining batch work runs only while the signal is cheap.
        if self._deferrable.pending:
            if self.ctx.price.is_cheap(view.now):
                return self._batch_admit(view)
            self._mark_deferred(view.now)
        return None

    def queue_depths(self) -> Dict[Tuple[str, str], int]:
        depths = self._interactive.depths()
        for key, depth in self._deferrable.depths().items():
            depths[key] = depths.get(key, 0) + depth
        return depths

    def next_event_s(self, now: float) -> float:
        wake = math.inf
        if self._deferrable.pending:
            # A forced start already in the past means the urgent head
            # was merely *skipped* (only cold boards were free); the
            # next chance to serve it is a board or arrival event,
            # which the simulator owns — a past wake here would only
            # spin the event loop, so only strictly-future forced
            # starts count.
            priority = self._deferrable.peek_priority()
            if priority is not None and priority[0] > now:
                wake = priority[0]
            if not self.ctx.price.is_cheap(now):
                wake = min(wake, self.ctx.price.next_cheap(now))
        return wake


#: Registry of selectable policies, keyed by CLI/report name.
POLICIES = {
    FifoPolicy.name: FifoPolicy,
    EdfPolicy.name: EdfPolicy,
    DeferrableWindowPolicy.name: DeferrableWindowPolicy,
}


def make_policy(policy) -> SchedulingPolicy:
    """Resolve a policy name (or pass through an instance)."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise SpecError(
            f"unknown policy {policy!r}; "
            f"try: {', '.join(sorted(POLICIES))}"
        ) from None
