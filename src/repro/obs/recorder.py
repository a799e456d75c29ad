"""The observer protocol instrumented subsystems record against.

:class:`Recorder` defines one no-op hook per observable event in the
scheduler + serving stack; concrete recorders
(:class:`~repro.obs.timeline.TimelineRecorder`,
:class:`~repro.obs.metrics.MetricsRecorder`) override the subset they
consume.  The contract with instrumented code is *zero overhead when
off*: every hot-path call site hoists the guard once —

    rec = recorder if recorder is not None and recorder.enabled else None
    ...
    if rec is not None:
        rec.batch(...)

— so a run without a recorder (or with :class:`NullRecorder`, whose
``enabled`` is ``False``) executes exactly the pre-instrumentation
instruction stream: no argument tuples are built, no per-event state
is gathered, and the serving reports stay bit-identical (the
regression suite asserts this float for float).

This package is a leaf: it imports nothing from :mod:`repro`, so the
runtime, core, and experiments layers can all depend on it freely.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

#: One gang member's contribution to a batch: ``(board_index,
#: key_load_seconds, key_miss_bytes)``.
MemberLoad = Tuple[int, float, int]

#: One board's key-cache snapshot: ``(hits, misses, bytes_loaded,
#: evictions, bytes_evicted, resident_bytes)``, as
#: :meth:`repro.runtime.serving.KeyCache.counters` returns it.
CacheCounters = Tuple[int, int, int, int, int, int]


class Recorder:
    """Base recorder: every hook is a no-op.

    Hooks are keyword-only so call sites stay readable and recorders
    can ignore arguments they do not consume.  Times are seconds of
    simulator time unless suffixed otherwise.
    """

    #: Instrumented code skips every hook when this is ``False``.
    enabled: bool = True

    # -- run lifecycle -------------------------------------------------

    def run_begin(self, *, scenario: str, num_devices: int, policy: str,
                  price: Optional[Any] = None, max_batch: int = 1) -> None:
        """A simulator run is starting on ``num_devices`` boards."""

    def run_end(self, *, makespan_s: float,
                device_busy_s: Sequence[float] = (),
                jobs_done: int = 0) -> None:
        """The run finished; ``device_busy_s`` is ground-truth busy
        time per board (the integral every windowed utilization series
        must reproduce)."""

    # -- serving events ------------------------------------------------

    def job_arrival(self, *, t: float, job_id: int, job_class: str,
                    tenant: str, deadline_s: Optional[float] = None,
                    deferrable: bool = False) -> None:
        """A job was admitted into the policy's queues at ``t``."""

    def job_rejected(self, *, t: float, job_id: int, job_class: str,
                     tenant: str,
                     deadline_s: Optional[float] = None) -> None:
        """Admission control dropped a job at decision time ``t``."""

    def batch(self, *, start: float, finish: float, job_class: str,
              tenant: str, batch_size: int, launch_s: float,
              members: Sequence[MemberLoad],
              cache_stats: Sequence[CacheCounters] = (),
              slo_met: int = 0, slo_total: int = 0,
              cost: float = 0.0, killed: bool = False) -> None:
        """A batch serviced on a gang of boards over
        ``[start, finish]``.  ``members`` aligns with the gang
        (master first); ``cache_stats`` (when provided) aligns with
        ``members``: one :data:`CacheCounters` tuple per board,
        snapshotting its key cache *after* the batch's key requests.
        ``killed`` marks a batch a board fault aborted at ``finish``:
        its boards were busy, its keys loaded and its cost paid, but
        none of its jobs completed (they went to the retry policy)."""

    def defer(self, *, board: int, t: float, wake: float) -> None:
        """The policy left ``board`` idle at ``t``; the simulator
        sleeps it until ``wake`` (or an earlier arrival)."""

    def policy_event(self, *, t: float, name: str, **args: Any) -> None:
        """A policy decision point (skip, forced start, deferral)."""

    def queue_sample(self, *, t: float, total: int,
                     depths: Optional[Dict[Tuple[str, str], int]] = None
                     ) -> None:
        """Queue depths observed at a dispatch opportunity.
        ``depths`` maps ``(job_class, tenant)`` to queued jobs."""

    # -- fault events ----------------------------------------------------

    def board_fault(self, *, t: float, board: int,
                    permanent: bool = False,
                    healthy: Optional[int] = None,
                    killed_batch: bool = False) -> None:
        """``board`` went down at ``t`` (its HBM key cache is wiped).
        ``permanent`` marks a board that never repairs; ``healthy`` is
        the pool's healthy-board count *after* the fault;
        ``killed_batch`` is set when the fault aborted an in-flight
        batch."""

    def board_repair(self, *, t: float, board: int,
                     healthy: Optional[int] = None) -> None:
        """``board`` came back up (cold: its key cache is empty).
        ``healthy`` is the healthy-board count after the repair."""

    # -- autoscaler events -----------------------------------------------

    def pool_resize(self, *, t: float, board: int, direction: str,
                    provisioned: Optional[int] = None) -> None:
        """The autoscaler voluntarily resized the pool at ``t``:
        ``direction`` is ``"down"`` (``board`` parked, its key cache
        evicted) or ``"up"`` (``board`` returned, cold).
        ``provisioned`` is the in-service board count *after* the
        transition — the capacity actually being paid for."""

    # -- membership-ledger events ----------------------------------------

    def ledger_transition(self, *, t: float, board: int, old: str,
                          new: str) -> None:
        """The pool-membership ledger moved ``board`` from state
        ``old`` to ``new`` at ``t`` (states:
        ``active | draining | parked | failed | repairing``).  The
        unified arbitration trail — per-state board-seconds and
        transition counts derive from this stream."""

    # -- scheduler events ----------------------------------------------

    def schedule_task(self, *, group: str, track: str, name: str,
                      start_s: float, finish_s: float,
                      device: Optional[int] = None) -> None:
        """One placed task of a static schedule (see
        :meth:`repro.core.scheduler.ScheduleResult.record_timeline`).
        ``group`` names the schedule, ``track`` the resource lane."""


class NullRecorder(Recorder):
    """The default recorder: off.  Instrumented code checks
    ``enabled`` once and never calls a hook, so a run with this
    recorder is bit-identical to a run with none."""

    enabled = False


#: Shared no-op instance (recorders are stateless when disabled).
NULL_RECORDER = NullRecorder()


class CompositeRecorder(Recorder):
    """Fan one event stream out to several recorders (e.g. a timeline
    and a metrics collector from a single run)."""

    def __init__(self, recorders: Iterable[Recorder]):
        self.recorders = [r for r in recorders if r.enabled]
        self.enabled = bool(self.recorders)

    def run_begin(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.run_begin(**kwargs)

    def run_end(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.run_end(**kwargs)

    def job_arrival(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.job_arrival(**kwargs)

    def job_rejected(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.job_rejected(**kwargs)

    def batch(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.batch(**kwargs)

    def defer(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.defer(**kwargs)

    def policy_event(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.policy_event(**kwargs)

    def queue_sample(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.queue_sample(**kwargs)

    def board_fault(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.board_fault(**kwargs)

    def board_repair(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.board_repair(**kwargs)

    def pool_resize(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.pool_resize(**kwargs)

    def ledger_transition(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.ledger_transition(**kwargs)

    def schedule_task(self, **kwargs: Any) -> None:
        for rec in self.recorders:
            rec.schedule_task(**kwargs)


def compose(*recorders: Optional[Recorder]) -> Recorder:
    """Combine recorders, dropping ``None`` and disabled ones.

    Returns :data:`NULL_RECORDER` when nothing is live and the sole
    recorder itself when only one is, so the common single-recorder
    path pays no fan-out indirection.
    """
    live = [r for r in recorders if r is not None and r.enabled]
    if not live:
        return NULL_RECORDER
    if len(live) == 1:
        return live[0]
    return CompositeRecorder(live)
