"""The serving DES event loop and its pool-membership ledger.

Pool membership changes involuntarily (faults,
``runtime/faults.py``) and voluntarily (elastic scaling,
``runtime/autoscaler.py``), and a real fleet sees both at once: a
board the scaler is draining can die mid-drain, a parked spare can
fail while parked, and capacity planning must price expected
failures.  One ledger-driven loop serves every case:

* :class:`PoolLedger` — the single owner of per-board membership
  state (``active | draining | parked | failed | repairing``), the
  per-state board-second integrals, and the key-cache eviction flag
  (a board's cache is evicted exactly once per departure, no matter
  how many mechanisms want it gone).
* :func:`run_with_ledger` — the one DES loop behind
  :meth:`repro.runtime.serving.ServingSimulator.run`.  With neither
  ``faults=`` nor ``autoscale=`` it serves the fixed pool; with one it
  runs only that mechanism's constructs (the golden suites pin all
  three); with both it applies the arbitration rules below.

Arbitration rules
-----------------

* **A fault completes a drain.**  When a board the scaler wants gone
  (``in_service_count > target``) is found down, it parks immediately
  instead of waiting out the repair — the fleet stops paying for
  capacity it neither wants nor has.  The ledger's eviction flag
  guarantees the key cache is dropped once, not once per mechanism.
* **A repair rejoins only if the scaler wants it.**  Parked boards are
  settled lazily at un-park time: a repaired spare stays ``parked``
  (zero provisioned board-seconds) until the scale policy raises the
  target; a spare found *still down* rejoins at its repair time; a
  spare found permanently dead is discarded (``failed``) and the next
  spare is tried.
* **Permanent death reconciles accounting.**  A dead in-service board
  stops accruing ``board_seconds`` at discovery time and silently
  leaves the provisioned pool; a board that died while parked never
  accrued any — the ledger's per-state integrals conserve
  ``num_boards * elapsed`` exactly either way.
* **Spares absorb failures before gangs re-stripe.**  With a
  :class:`repro.runtime.autoscaler.SpareScalePolicy` (``spare:n=``),
  warm standbys replace boards found down or dead, so striped gangs
  keep their planned width until the spare pool is exhausted — only
  then does degraded re-planning kick in.  If every in-service
  board is dead the loop performs an emergency un-park before
  declaring the pool dead.

Signals gain ``alive`` / ``down_in_service`` / ``availability``
(1 − down board-seconds ÷ provisioned board-seconds per closed
window), which the availability-aware predictive sizer divides through
— capacity planning priced at the fleet's *empirical* availability.

Observability: every ledger transition fires the
``ledger_transition`` recorder hook (a state-transition track in the
timeline, per-state board-seconds in the metrics summary).  All of it
is lazy-discovery semantics: a fault on a board nobody touches is
accounted when the loop next settles that board.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, List, Optional, Tuple

from ..obs import NULL_RECORDER, Recorder
from ..obs.metrics import window_index
from .autoscaler import ScaleSignals, make_scale_policy
from .faults import FaultSchedule, make_fault_process, make_retry_policy
from .policies import DispatchView, PolicyContext, PriceSignal, make_policy
from .serving import (
    DeviceState,
    Job,
    JobClass,
    KeyCache,
    Scenario,
    ServingReport,
    key_caches,
    key_load_seconds,
    report_from_jobs,
)
from .striped_lowering import largest_viable_stripe

#: Ledger board states.
ACTIVE = "active"
DRAINING = "draining"
PARKED = "parked"
FAILED = "failed"
REPAIRING = "repairing"

#: Every state a board can be in, in display order.
BOARD_STATES = (ACTIVE, DRAINING, PARKED, FAILED, REPAIRING)


class PoolLedger:
    """The single source of truth for per-board membership state.

    Owns three things the two pool-membership mechanisms used to track
    (and fight over) separately:

    * the per-board **state machine** over :data:`BOARD_STATES`, with
      per-board monotonic transition times (a lazily-discovered fault
      may carry a timestamp earlier than the board's last transition;
      the ledger clamps it so per-state integrals never go negative);
    * the per-state **board-second integrals** — ``state_seconds()``
      after :meth:`close` conserves ``num_boards * elapsed`` exactly;
    * the **eviction flag** — :meth:`evict` drops a board's key cache
      only if it holds residency, so a fault landing mid-drain (or a
      double park) evicts exactly once per departure.

    The ledger is pure bookkeeping: it never touches the event loop's
    heaps, so running it alongside the single-mechanism paths leaves
    their reports bit-identical.
    """

    def __init__(self, num_boards: int):
        if num_boards < 1:
            raise ValueError("need at least one board")
        self.num_boards = int(num_boards)
        self._state = [ACTIVE] * self.num_boards
        self._since = [0.0] * self.num_boards
        self._seconds: Dict[str, float] = {s: 0.0 for s in BOARD_STATES}
        self._evicted = [False] * self.num_boards
        #: ``"old->new"`` -> count, the chaos-smoke arbitration counters.
        self.transitions: Dict[str, int] = {}
        #: Set by the run that owns the ledger; ``None`` when unrecorded.
        self.recorder: Optional[Recorder] = None
        self.closed_at: Optional[float] = None

    def state(self, board: int) -> str:
        return self._state[board]

    def states(self) -> Tuple[str, ...]:
        return tuple(self._state)

    def counts(self) -> Dict[str, int]:
        """Boards currently in each state (zero-count states included)."""
        out = {s: 0 for s in BOARD_STATES}
        for state in self._state:
            out[state] += 1
        return out

    def transition(self, board: int, new_state: str, t: float) -> None:
        """Move ``board`` to ``new_state`` at ``t`` (clamped to the
        board's last transition time).  Same-state moves are no-ops so
        call sites never need to pre-check."""
        old = self._state[board]
        if new_state == old:
            return
        t = max(t, self._since[board])
        self._seconds[old] += t - self._since[board]
        self._state[board] = new_state
        self._since[board] = t
        key = f"{old}->{new_state}"
        self.transitions[key] = self.transitions.get(key, 0) + 1
        if self.recorder is not None:
            self.recorder.ledger_transition(t=t, board=board, old=old, new=new_state)

    def evict(self, board: int, cache: KeyCache) -> bool:
        """Drop ``board``'s key cache if it still holds residency.

        Returns whether an eviction actually happened.  The flag is
        the double-eviction fix: once a departure (fault settlement or
        park) has wiped the cache, further departures before the board
        next serves a batch are no-ops.
        """
        if self._evicted[board]:
            return False
        cache.drop_all()
        self._evicted[board] = True
        return True

    def warmed(self, board: int) -> None:
        """``board`` repopulated its cache (served a batch): the next
        departure must evict again."""
        self._evicted[board] = False

    def close(self, t: float) -> float:
        """Accrue every board's open interval to a common end time
        (the max of ``t`` and all transition times) and return it.
        After closing, ``sum(state_seconds().values())`` equals
        ``num_boards * end`` exactly up to float summation."""
        end = max(t, max(self._since))
        for board in range(self.num_boards):
            self._seconds[self._state[board]] += end - self._since[board]
            self._since[board] = end
        self.closed_at = end
        return end

    def state_seconds(self) -> Dict[str, float]:
        """Board-seconds accrued per state (call :meth:`close` first
        to include the open tail)."""
        return dict(self._seconds)

    def __repr__(self) -> str:
        counts = {s: c for s, c in self.counts().items() if c}
        return f"PoolLedger({self.num_boards} boards, {counts})"


# ----------------------------------------------------------------------
# The unified event loop
# ----------------------------------------------------------------------
def run_with_ledger(
    sim,
    scenario: Scenario,
    seed: int = 0,
    policy="fifo",
    price: Optional[PriceSignal] = None,
    recorder: Optional[Recorder] = None,
    faults=None,
    retry=None,
    autoscale=None,
    ledger: Optional[PoolLedger] = None,
) -> ServingReport:
    """The serving DES: the one event loop behind
    :meth:`ServingSimulator.run` (``engine="des"``).

    Every fault-only construct is gated on ``faults`` being set and
    every elasticity construct on ``autoscale``.  With neither, the
    loop serves the fixed pool: no board ever leaves the ledger's
    ``active`` state and the report is golden-pinned (under ``fifo``,
    to the original frontier-scanning loop's reports too).  Each single
    mechanism runs only its own constructs; the combination applies
    the module's arbitration rules.  Pass ``ledger=`` to inspect the
    membership state machine after the run (tests do); by default one
    is created per run.
    """
    scale = make_scale_policy(autoscale) if autoscale is not None else None
    retry = make_retry_policy(retry)
    rec = recorder if recorder is not None and recorder.enabled else None
    jobs = scenario.generate(seed)
    policy = make_policy(policy)
    price = price if price is not None else PriceSignal.flat()
    schedule = (
        FaultSchedule(make_fault_process(faults), sim.num_devices, seed)
        if faults is not None
        else None
    )
    retry_rng = random.Random(f"retry:{seed}")
    if ledger is None:
        ledger = PoolLedger(sim.num_devices)
    ledger.recorder = rec
    # Only a fault or a park evicts a key cache; a fixed pool never
    # needs the ledger's eviction flag re-armed.
    evicts = schedule is not None or scale is not None
    # A board leaving the pool can re-plan a striped class onto another
    # key set, which only the per-key cache tracks exactly.
    devices = [
        DeviceState(i, cache)
        for i, cache in enumerate(key_caches(sim, scenario, pool_changes=evicts))
    ]
    free_heap: List[Tuple[float, int]] = [(0.0, d.index) for d in devices]
    heapq.heapify(free_heap)
    completed: List[Job] = []
    rejected: List[Job] = []
    shed: List[Job] = []
    retry_heap: List[Tuple[float, int, Job]] = []
    retry_seq = 0
    #: job_id -> Job for every job currently inside the policy's
    #: queues (pool death must shed them; policies have no drain API).
    #: Only faults can kill the pool, so only they fill it.
    in_policy: Dict[int, Job] = {}
    restripe_cache: Dict[Tuple[JobClass, int], Optional[JobClass]] = {}
    batches = 0
    batched_jobs = 0
    cost_price_units = 0.0
    board_faults = 0
    failures = 0
    wasted_service_s = 0.0
    alive = sim.num_devices  # boards not permanently dead
    healthy = sim.num_devices  # recorder-visible up-board counter
    i = 0
    n = len(jobs)
    launch_overhead_s = sim.host.kernel_launch_overhead_s
    now = 0.0
    device_index = 0

    # -- elasticity state ----------------------------------------------
    interval = scale.interval_s if scale is not None else math.inf
    in_service = [True] * sim.num_devices
    in_service_count = sim.num_devices
    parked: List[int] = []  # LIFO: most recently parked first
    target = in_service_count
    eval_count = 0  # control windows already closed
    resize_events = 0
    scale_ups = 0
    scale_downs = 0
    # signal accumulators
    arrival_bins: Dict[int, int] = {}
    busy_deltas: List[Tuple[float, int, int]] = []  # (t, seq, +/-k)
    busy_seq = 0
    busy_level = 0
    busy_last_t = 0.0
    busy_area = 0.0  # busy board-s since the last eval
    prov_last_t = 0.0
    prov_area = 0.0  # provisioned board-s since last eval
    board_seconds = 0.0  # total provisioned board-s (paid)
    busy_total_s = 0.0  # dispatched board-s (capacity oracle)
    jobs_dispatched = 0
    # in-service down-time integral (the availability signal): +1 when
    # an in-service board is discovered down, -1 at its repair (or at
    # a departure — park / death — that takes it out of service).
    down_deltas: List[Tuple[float, int, int]] = []
    down_seq = 0
    down_level = 0
    down_last_t = 0.0
    down_area = 0.0
    if scale is not None:
        scale.begin(sim.num_devices)

    def advance_busy(t: float) -> None:
        nonlocal busy_level, busy_last_t, busy_area
        while busy_deltas and busy_deltas[0][0] <= t:
            event_t, _, delta = heapq.heappop(busy_deltas)
            if event_t > busy_last_t:
                busy_area += busy_level * (event_t - busy_last_t)
                busy_last_t = event_t
            busy_level += delta
        if t > busy_last_t:
            busy_area += busy_level * (t - busy_last_t)
            busy_last_t = t

    def advance_down(t: float) -> None:
        nonlocal down_level, down_last_t, down_area
        while down_deltas and down_deltas[0][0] <= t:
            event_t, _, delta = heapq.heappop(down_deltas)
            if event_t > down_last_t:
                down_area += down_level * (event_t - down_last_t)
                down_last_t = event_t
            down_level += delta
        if t > down_last_t:
            down_area += down_level * (t - down_last_t)
            down_last_t = t

    def mark_down(start: float, end: float) -> None:
        nonlocal down_seq
        down_seq += 1
        heapq.heappush(down_deltas, (start, down_seq, 1))
        down_seq += 1
        heapq.heappush(down_deltas, (end, down_seq, -1))

    def flush_provisioned(t: float) -> None:
        nonlocal prov_last_t, prov_area, board_seconds
        if t > prov_last_t:
            span = (t - prov_last_t) * in_service_count
            prov_area += span
            board_seconds += span
            prov_last_t = t

    def resize_provisioned(t: float, delta: int) -> None:
        """Flush the bill to ``t``, then change ``in_service_count``
        by ``delta`` (-1 for a park or a death, +1 for an un-park).

        A board popped from the heap can be older than the idle jump
        that already flushed past it (``t < prov_last_t``); the bill
        for ``[t, prov_last_t)`` then used the old count and is
        corrected here.  The scaler's windowed ``prov_area`` is left
        as flushed, so its signals are unchanged.
        """
        nonlocal in_service_count, board_seconds
        flush_provisioned(t)
        if t < prov_last_t:
            board_seconds += delta * (prov_last_t - t)
        in_service_count += delta

    def catch_up(t: float) -> None:
        """Close every control window whose boundary has passed.

        Called *before* the events at ``t`` are admitted: the
        boundary ``k * interval <= t`` lies in this event's past, so
        the decision there must see the queue as it stood at the
        boundary — admitting first would leak the event into its own
        control window and pin ``queue_depth >= 1`` at every eval
        that an arrival wakes (which is all of them in a trough).
        """
        nonlocal eval_count
        while (eval_count + 1) * interval <= t:
            eval_count += 1
            admit(eval_count * interval)
            evaluate(eval_count * interval, eval_count - 1)

    def evaluate(t_eval: float, window: int) -> None:
        nonlocal target, busy_area, prov_area, down_area
        advance_busy(t_eval)
        advance_down(t_eval)
        flush_provisioned(t_eval)
        arrivals = arrival_bins.pop(window, 0)
        if prov_area > 0.0:
            availability = min(1.0, max(0.0, 1.0 - down_area / prov_area))
        else:
            availability = 1.0
        signals = ScaleSignals(
            t=t_eval,
            interval_s=interval,
            queue_depth=policy.pending,
            provisioned=in_service_count,
            busy_board_s=busy_area,
            provisioned_board_s=prov_area,
            arrivals=arrivals,
            arrival_rate=arrivals / interval,
            service_s_per_job=(
                busy_total_s / jobs_dispatched if jobs_dispatched else 0.0
            ),
            alive=alive,
            down_in_service=down_level,
            availability=availability,
        )
        busy_area = 0.0
        prov_area = 0.0
        down_area = 0.0
        target = max(1, min(scale.decide(signals), sim.num_devices))

    def reject_job(job: Job) -> None:
        rejected.append(job)
        in_policy.pop(job.job_id, None)
        if rec is not None:
            deadline = job.effective_deadline_s
            rec.job_rejected(
                t=now,
                job_id=job.job_id,
                job_class=job.job_class.name,
                tenant=job.tenant,
                deadline_s=(None if deadline == math.inf else deadline),
            )

    policy.begin(
        PolicyContext(
            max_batch=sim.max_batch,
            price=price,
            service_bound_s=sim.service_bound_s,
            best_case_s=sim.best_case_service_s,
            reject=reject_job,
            recorder=recorder if rec is not None else NULL_RECORDER,
        )
    )
    if rec is not None:
        rec.run_begin(
            scenario=scenario.name,
            num_devices=sim.num_devices,
            policy=policy.name,
            price=price,
            max_batch=sim.max_batch,
        )

    if schedule is None:
        enqueue = policy.enqueue
    else:

        def enqueue(job: Job) -> None:
            policy.enqueue(job)
            in_policy[job.job_id] = job

    def admit(now: float) -> None:
        nonlocal i
        while i < n and jobs[i].arrival_s <= now:
            job = jobs[i]
            enqueue(job)
            if scale is not None:
                bin_index = window_index(job.arrival_s, interval)
                arrival_bins[bin_index] = arrival_bins.get(bin_index, 0) + 1
            if rec is not None:
                deadline = job.effective_deadline_s
                rec.job_arrival(
                    t=job.arrival_s,
                    job_id=job.job_id,
                    job_class=job.job_class.name,
                    tenant=job.tenant,
                    deadline_s=(None if deadline == math.inf else deadline),
                    deferrable=job.deferrable,
                )
            i += 1
        while retry_heap and retry_heap[0][0] <= now:
            _, _, job = heapq.heappop(retry_heap)
            enqueue(job)

    def next_pending_s() -> float:
        t = jobs[i].arrival_s if i < n else math.inf
        if retry_heap and retry_heap[0][0] < t:
            t = retry_heap[0][0]
        return t

    def shed_job(job: Job, reason: str, t: float) -> None:
        job.shed = True
        job.shed_reason = reason
        shed.append(job)
        in_policy.pop(job.job_id, None)
        if rec is not None:
            rec.policy_event(
                t=t,
                name=f"shed:{reason}",
                job_id=job.job_id,
                job_class=job.job_class.name,
                tenant=job.tenant,
            )

    def settle_board(b: int, t: float, killed_batch: bool = False):
        """Process board ``b``'s fault timeline up to ``t``.

        Returns ``"dead"`` (permanent failure discovered), a float
        repair time ``> t`` (board is down at ``t``), or ``None``
        (board healthy at ``t``).  Fault side effects — ledger-owned
        cache eviction, recorder instants, alive/healthy/in-service
        bookkeeping — fire exactly once per interval.
        """
        nonlocal board_faults, alive, healthy
        device = devices[b]
        while True:
            down, up = schedule.current(b)
            if down > t:
                return None
            if not schedule.processed(b):
                schedule.mark_processed(b)
                ledger.evict(b, device.cache)
                board_faults += 1
                permanent = math.isinf(up)
                healthy -= 1
                if rec is not None:
                    rec.board_fault(
                        t=down,
                        board=b,
                        permanent=permanent,
                        healthy=healthy,
                        killed_batch=killed_batch,
                    )
                if permanent:
                    alive -= 1
                    if scale is not None and in_service[b]:
                        # Stop paying for the dead board at discovery
                        # time; its down-time since the fault feeds
                        # the availability signal.
                        resize_provisioned(t, -1)
                        in_service[b] = False
                        mark_down(down, t)
                    ledger.transition(b, FAILED, down)
                    return "dead"
                # The repair instant is known now; record it at its
                # own timestamp (trace events are buffered + sorted).
                healthy += 1
                if rec is not None:
                    rec.board_repair(t=up, board=b, healthy=healthy)
                if in_service[b]:
                    ledger.transition(b, REPAIRING, down)
                    if scale is not None:
                        mark_down(down, up)
            if math.isinf(up):
                return "dead"
            if up > t:
                return up
            schedule.advance(b)
            if ledger.state(b) == REPAIRING:
                ledger.transition(b, ACTIVE, up)

    def park_board(b: int, t: float) -> None:
        """Take board ``b`` out of service at ``t`` (the drain just
        completed — voluntarily, or because a fault finished it)."""
        nonlocal resize_events, scale_downs
        resize_provisioned(t, -1)
        in_service[b] = False
        parked.append(b)
        ledger.evict(b, devices[b].cache)
        ledger.transition(b, DRAINING, t)
        ledger.transition(b, PARKED, t)
        resize_events += 1
        scale_downs += 1
        if rec is not None:
            rec.pool_resize(
                t=t, board=b, direction="down", provisioned=in_service_count
            )

    def unpark_board(t: float) -> bool:
        """Return one parked board to service at ``t`` (cold).

        Settles the spare first: a permanently dead spare is
        discarded (``failed``) and the next one tried; a spare still
        under repair rejoins at its repair time.  Returns whether a
        board actually rejoined.
        """
        nonlocal resize_events, scale_ups
        while parked:
            board = parked.pop()
            status = settle_board(board, t) if schedule is not None else None
            if status == "dead":
                continue
            resize_provisioned(t, +1)
            in_service[board] = True
            resize_events += 1
            scale_ups += 1
            if status is not None:
                ledger.transition(board, REPAIRING, t)
                mark_down(t, status)
                heapq.heappush(free_heap, (status, board))
            else:
                ledger.transition(board, ACTIVE, t)
                heapq.heappush(free_heap, (t, board))
            if rec is not None:
                rec.pool_resize(
                    t=t, board=board, direction="up", provisioned=in_service_count
                )
            return True
        return False

    def fail_batch(
        batch: List[Job],
        gang,
        start: float,
        fail_t: float,
        launched: bool,
    ) -> None:
        """A fault killed ``batch`` at ``fail_t``; route every job
        through the retry policy and free the surviving boards."""
        nonlocal failures, wasted_service_s, cost_price_units
        nonlocal retry_seq
        failures += 1
        run_s = fail_t - start
        if launched and run_s > 0:
            wasted_service_s += run_s * len(gang)
            cost_price_units += len(gang) * price.integral(start, fail_t)
        for member in gang:
            if launched and run_s > 0:
                member.busy_s += run_s
        for job in batch:
            wake = retry.next_attempt_s(job, fail_t, retry_rng)
            if wake is None:
                shed_job(job, "retry_budget", fail_t)
            else:
                job.retries += 1
                retry_seq += 1
                heapq.heappush(retry_heap, (wake, retry_seq, job))
        for member in gang:
            status = settle_board(member.index, fail_t, killed_batch=True)
            if status == "dead":
                member.free_at_s = fail_t
                continue
            if status is not None:
                member.free_at_s = status
                heapq.heappush(free_heap, (status, member.index))
            else:
                member.free_at_s = fail_t
                heapq.heappush(free_heap, (fail_t, member.index))

    def gang_start(k: int) -> float:
        if k <= 1:
            return now
        extra = heapq.nsmallest(k - 1, free_heap)
        free = max((devices[index].free_at_s for _, index in extra), default=now)
        return max(now, free)

    def service_s(job: Job, batch_size: int) -> float:
        job_class = job.job_class
        members = [devices[device_index]]
        if job_class.num_fpgas > 1:
            members += [
                devices[index]
                for _, index in heapq.nsmallest(job_class.num_fpgas - 1, free_heap)
            ]
        load_s = max(
            key_load_seconds(
                sim.host, member.cache.peek_miss_bytes(job.tenant, job_class)
            )
            for member in members
        )
        return launch_overhead_s + load_s + batch_size * job_class.seconds(sim.config)

    view = DispatchView(now=0.0, gang_start=gang_start, service_s=service_s)

    while i < n or policy.pending or retry_heap:
        if not free_heap:
            # Every in-service board is permanently dead.  With
            # spares parked, perform an emergency un-park (the ledger
            # discards dead spares); otherwise the pool is dead: shed
            # all remaining work (queued, awaiting retry, unarrived).
            if scale is not None and unpark_board(now):
                continue
            for job in list(in_policy.values()):
                shed_job(job, "pool_dead", now)
            while retry_heap:
                _, _, job = heapq.heappop(retry_heap)
                shed_job(job, "pool_dead", now)
            while i < n:
                shed_job(jobs[i], "pool_dead", now)
                i += 1
            break
        free_at, device_index = heapq.heappop(free_heap)
        now = free_at
        # Catch the control loop up to ``now`` *before* admitting the
        # events at ``now``: one decision per elapsed window, each fed
        # exactly that window's signals.
        if scale is not None:
            catch_up(now)
        admit(now)
        if not policy.pending:
            # Idle until the next arrival or retry wake.
            now = max(now, next_pending_s())
            if scale is not None:
                catch_up(now)
            admit(now)
        # At now = inf every board deferred with work still queued: the
        # policy only rejects what is left, and an unbounded fault
        # timeline could never be settled up to inf.
        if schedule is not None and now != math.inf:
            status = settle_board(device_index, now)
            if status == "dead":
                continue
            if status is not None:
                if scale is not None and in_service_count > target:
                    # Arbitration: the fault completes the drain.  The
                    # scaler wanted this board gone; park it now
                    # instead of paying until its repair.  Its cache
                    # was already evicted by the fault settlement, so
                    # the park's eviction is the ledger no-op — one
                    # eviction per departure.
                    mark_down(now, status)  # cancels [now, status)
                    park_board(device_index, now)
                    continue
                heapq.heappush(free_heap, (status, device_index))
                continue
        # Scale-up applies immediately: parked boards rejoin cold
        # (their key caches were evicted when they parked).
        if scale is not None:
            while in_service_count < target and unpark_board(now):
                pass
            # Scale-down drains: this board just came up free, so
            # parking it never interrupts work.  Its gang (if any)
            # already finished; queued work re-plans below if the
            # stripe no longer fits.
            if in_service_count > target:
                park_board(device_index, now)
                continue

        view.now = now
        if rec is not None:
            rec.queue_sample(t=now, total=policy.pending, depths=policy.queue_depths())
        batch = policy.next_batch(view)
        if not batch:
            if policy.pending:
                wake = policy.next_event_s(now)
                if i < n:
                    wake = min(wake, jobs[i].arrival_s)
                if retry_heap:
                    wake = min(wake, retry_heap[0][0])
                if scale is not None:
                    # Never sleep through a control boundary: a
                    # deferred board must still wake to apply a
                    # pending resize.
                    wake = min(wake, (eval_count + 1) * interval)
                if wake <= now:
                    wake = math.nextafter(now, math.inf)
                if rec is not None:
                    rec.defer(board=device_index, t=now, wake=wake)
                heapq.heappush(free_heap, (wake, device_index))
            else:
                heapq.heappush(free_heap, (now, device_index))
            continue
        if schedule is not None:
            for job in batch:
                in_policy.pop(job.job_id, None)
        job_class = batch[0].job_class

        pool_limit = in_service_count if scale is not None else alive
        if job_class.num_fpgas > pool_limit:
            # The pool can no longer seat this gang — capacity left
            # permanently (deaths) or on purpose (parks).  Re-plan
            # onto the widest viable smaller stripe, or shed when
            # none fits / the trace is unavailable.
            k = largest_viable_stripe(pool_limit, job_class.num_fpgas)
            key = (job_class, k)
            if key not in restripe_cache:
                restripe_cache[key] = (
                    job_class.restriped(k, sim.config) if k >= 1 else None
                )
            new_class = restripe_cache[key]
            if new_class is None:
                for job in batch:
                    shed_job(job, "degraded", now)
            else:
                if rec is not None:
                    rec.policy_event(
                        t=now,
                        name="degrade",
                        job_class=job_class.name,
                        from_stripe=job_class.num_fpgas,
                        to_stripe=k,
                        jobs=len(batch),
                    )
                for job in batch:
                    job.job_class = new_class
                    job.degraded = True
                    enqueue(job)
            heapq.heappush(free_heap, (now, device_index))
            continue

        gang = [devices[device_index]]
        start = now
        if job_class.num_fpgas > 1:
            # Gang-assemble: a down board is just a board that frees
            # at its repair time; a board found permanently dead is
            # skipped (and may leave the gang short — see below).
            # Parked boards are not in the heap, so the gang only
            # ever recruits in-service boards.
            needed = job_class.num_fpgas - 1
            while needed and free_heap:
                _, extra_index = heapq.heappop(free_heap)
                member = devices[extra_index]
                avail = max(now, member.free_at_s)
                if schedule is not None:
                    mstatus = settle_board(extra_index, avail)
                    if mstatus == "dead":
                        continue
                    if mstatus is not None and mstatus > avail:
                        avail = mstatus
                        member.free_at_s = mstatus
                gang.append(member)
                needed -= 1
                if avail > start:
                    start = avail
            if needed:
                # The heap dried up before the gang filled: newly
                # discovered dead boards shrank the pool below the
                # stripe.  Put everything back; the next dispatch
                # sees the updated pool and re-plans.
                for member in gang:
                    if member.index != device_index:
                        heapq.heappush(
                            free_heap, (max(now, member.free_at_s), member.index)
                        )
                for job in batch:
                    enqueue(job)
                heapq.heappush(free_heap, (math.nextafter(now, math.inf), device_index))
                continue

        if schedule is not None:
            # Settle every member to the (possibly repair-delayed)
            # start: waiting boards can fault while idle, which may
            # push the start further out or kill the dispatch before
            # launch.
            aborted = False
            while True:
                moved = False
                for member in gang:
                    mstatus = settle_board(member.index, start)
                    if mstatus == "dead":
                        # A member died while the gang was forming:
                        # the batch never launches.
                        dead_index = member.index
                        fail_batch(
                            batch,
                            [m for m in gang if m.index != dead_index],
                            start,
                            start,
                            launched=False,
                        )
                        aborted = True
                        break
                    if mstatus is not None and mstatus > start:
                        start = mstatus
                        moved = True
                if aborted or not moved:
                    break
            if aborted:
                continue

        # Switching keys replicate into every gang board's HBM; the
        # per-board PCIe loads run in parallel, so the batch waits for
        # the slowest board's misses.  Residency is committed even if
        # a fault then kills the batch: the loads were in flight.
        load_s = 0.0
        member_loads = [] if rec is not None else None
        for member in gang:
            miss_bytes = member.cache.request(batch[0].tenant, job_class)
            member_load_s = key_load_seconds(sim.host, miss_bytes)
            if evicts:
                ledger.warmed(member.index)
            if member_loads is not None:
                member_loads.append((member.index, member_load_s, miss_bytes))
            if member_load_s > load_s:
                load_s = member_load_s
        compute_s = len(batch) * job_class.seconds(sim.config)
        batch_service_s = launch_overhead_s + load_s + compute_s
        finish = start + batch_service_s
        if schedule is not None:
            fail_t = min(schedule.next_down_s(m.index) for m in gang)
            if fail_t < finish:
                # The gang loses a board mid-batch (or at the starting
                # line): everything since ``start`` is wasted and
                # every job goes to the retry policy.  The failed
                # board's cache is wiped by its fault settlement.
                if rec is not None and fail_t > start:
                    rec.batch(
                        start=start,
                        finish=fail_t,
                        job_class=job_class.name,
                        tenant=batch[0].tenant,
                        batch_size=len(batch),
                        launch_s=launch_overhead_s,
                        members=member_loads,
                        cache_stats=[m.cache.counters() for m in gang],
                        cost=len(gang) * price.integral(start, fail_t),
                        killed=True,
                    )
                    rec.policy_event(
                        t=fail_t,
                        name="batch_killed",
                        job_class=job_class.name,
                        jobs=len(batch),
                    )
                if scale is not None:
                    busy_seq += 1
                    heapq.heappush(busy_deltas, (start, busy_seq, len(gang)))
                    busy_seq += 1
                    heapq.heappush(busy_deltas, (fail_t, busy_seq, -len(gang)))
                fail_batch(batch, gang, start, fail_t, launched=True)
                continue

        for job in batch:
            job.finish_s = finish
        completed.extend(batch)
        for member in gang:
            member.free_at_s = finish
            member.busy_s += batch_service_s
            heapq.heappush(free_heap, (finish, member.index))
        gang[0].jobs_done += len(batch)
        batches += 1
        batched_jobs += len(batch)
        if scale is not None:
            busy_seq += 1
            heapq.heappush(busy_deltas, (start, busy_seq, len(gang)))
            busy_seq += 1
            heapq.heappush(busy_deltas, (finish, busy_seq, -len(gang)))
            busy_total_s += batch_service_s * len(gang)
            jobs_dispatched += len(batch)
        batch_cost = len(gang) * price.integral(start, finish)
        cost_price_units += batch_cost
        if rec is not None:
            slo_met = slo_total = 0
            for job in batch:
                deadline = job.effective_deadline_s
                if deadline != math.inf:
                    slo_total += 1
                    if finish <= deadline:
                        slo_met += 1
            rec.batch(
                start=start,
                finish=finish,
                job_class=job_class.name,
                tenant=batch[0].tenant,
                batch_size=len(batch),
                launch_s=launch_overhead_s,
                members=member_loads,
                cache_stats=[m.cache.counters() for m in gang],
                slo_met=slo_met,
                slo_total=slo_total,
                cost=batch_cost,
            )

    makespan = max((j.finish_s or 0.0 for j in completed), default=0.0)
    end = ledger.close(max(makespan, now, prov_last_t))
    if scale is not None:
        # Close the capacity integral where the ledger closes: the
        # bill then equals the ledger's in-service board-seconds.
        flush_provisioned(end)
    if rec is not None:
        rec.run_end(
            makespan_s=makespan,
            device_busy_s=tuple(d.busy_s for d in devices),
            jobs_done=len(completed),
        )
    report_kwargs: Dict[str, object] = {}
    if schedule is not None:
        report_kwargs.update(
            board_faults=board_faults,
            failures=failures,
            wasted_service_s=wasted_service_s,
        )
    if scale is not None:
        report_kwargs.update(
            resize_events=resize_events,
            scale_ups=scale_ups,
            scale_downs=scale_downs,
            board_seconds=board_seconds,
        )
    return report_from_jobs(
        scenario,
        completed,
        devices,
        batches=batches,
        batched_jobs=batched_jobs,
        policy=policy.name,
        rejected=rejected,
        deferred_jobs=policy.deferred_jobs,
        cost_price_units=cost_price_units,
        shed=shed,
        **report_kwargs,
    )


__all__ = [
    "ACTIVE",
    "BOARD_STATES",
    "DRAINING",
    "FAILED",
    "PARKED",
    "PoolLedger",
    "REPAIRING",
    "run_with_ledger",
]
