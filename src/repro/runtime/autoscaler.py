"""Elastic autoscaling for the serving simulator.

PR 8 built the involuntary half of pool elasticity: boards leave and
rejoin the pool when a fault process says so.  This module adds the
*voluntary* half — a pluggable :class:`ScalePolicy` that watches
windowed queue-depth / utilization / arrival-rate signals and drives
the same board-down/board-up transitions on purpose:

* **Scale-down drains.**  A board leaves the pool only when it comes
  up free — an in-flight gang always finishes (or is re-planned when
  its planned stripe no longer fits the shrunken pool, via
  :func:`repro.runtime.striped_lowering.largest_viable_stripe` +
  :meth:`repro.runtime.serving.JobClass.restriped`); work is never
  silently killed.  Parking a board evicts its HBM switching-key
  cache, exactly like a fault does.
* **Scale-up is cold.**  A returning board starts with an empty key
  cache, so its first batches repay the switching-key reload over
  PCIe through the existing
  :func:`repro.runtime.serving.key_load_seconds` cost model — elastic
  capacity is never free capacity.
* **Signals are boundary-exact.**  Decision windows are indexed with
  :func:`repro.obs.metrics.window_index` (the ulp-tolerant index the
  windowed-metrics bugfix introduced), so an arrival at exactly a
  control-window boundary feeds the decision for the window it opens.

Policies share the ``name:key=value,...`` spec grammar of
:mod:`repro.runtime.specs`:

* ``reactive:low=0.3,high=0.85,cooldown=0.05`` — threshold control on
  windowed utilization (scale up past ``high`` or when the backlog
  exceeds one job per board; scale down below ``low`` with an empty
  queue), ``step`` boards at a time, with a ``cooldown`` between
  target changes to prevent flapping.
* ``predictive:window=0.1,horizon=0.05,target=0.7`` — least-squares
  rate trend over the last ``window`` seconds of arrival windows,
  extrapolated ``horizon`` seconds ahead and converted to boards via
  the measured board-seconds-per-job, aiming at ``target``
  utilization.

The serving DES (:func:`repro.runtime.membership.run_with_ledger`,
reached through ``ServingSimulator.run(autoscale=...)``) drives the
policy; every elasticity construct there is gated on a scale policy
being present, so ``autoscale=None`` runs none of it (the golden
bit-identity suite pins this).  Reports grow
``resize_events`` / ``scale_ups`` / ``scale_downs`` and
``board_seconds`` — the capacity actually paid for, the denominator
of cost-per-goodput — and recorders see ``pool_resize`` instants plus
a provisioned-boards counter track.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .specs import SpecError, parse_spec_kwargs, take_spec_options

#: Registry of spec names accepted by :func:`make_scale_policy`.
SCALE_POLICIES = ("reactive", "predictive", "spare")

#: Floor for the empirical-availability divisor in
#: availability-aware sizing: a window measured fully down would
#: otherwise demand an unbounded fleet.
AVAILABILITY_FLOOR = 0.05


# ----------------------------------------------------------------------
# Signals
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleSignals:
    """What a :class:`ScalePolicy` sees at one control instant.

    Windowed quantities cover the control interval that just closed at
    ``t``; ``busy_board_s`` / ``provisioned_board_s`` are exact
    board-second integrals over that interval, so
    :attr:`utilization` is the true windowed busy fraction, not an
    instantaneous sample.
    """

    #: The control instant (a window boundary ``k * interval_s``).
    t: float
    #: Width of the control window that just closed.
    interval_s: float
    #: Jobs pending in the policy's queues at ``t``.
    queue_depth: int
    #: In-service boards at ``t`` (capacity currently paid for).
    provisioned: int
    #: Busy board-seconds integrated over the closed window.
    busy_board_s: float
    #: Provisioned board-seconds integrated over the closed window.
    provisioned_board_s: float
    #: Jobs that arrived during the closed window.
    arrivals: int
    #: ``arrivals / interval_s`` — the window's offered rate.
    arrival_rate: float
    #: Measured board-seconds per completed job so far (0 until the
    #: first dispatch) — the capacity oracle predictive sizing uses.
    service_s_per_job: float
    #: Boards not permanently failed (in service + parked spares), or
    #: ``None`` outside the unified ledger loop.  The hard ceiling a
    #: spare-pool policy sizes against.
    alive: Optional[int] = None
    #: In-service boards down for repair at ``t`` (discovered faults
    #: only — lazy-settlement semantics).  0 without fault injection.
    down_in_service: int = 0
    #: Serviceable fraction of the provisioned board-seconds over the
    #: closed window (1 - down board-s / provisioned board-s); 1.0
    #: without fault injection.  The empirical-availability signal
    #: availability-aware predictive sizing divides through.
    availability: float = 1.0

    @property
    def utilization(self) -> float:
        """Busy fraction of provisioned capacity over the window."""
        if self.provisioned_board_s <= 0:
            return 0.0
        return self.busy_board_s / self.provisioned_board_s


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------

class ScalePolicy:
    """Base scale policy: decides the provisioned-board target.

    :meth:`begin` resolves the pool bounds; :meth:`decide` is called
    once per elapsed control interval (``interval_s`` seconds of sim
    time) and returns the desired in-service board count.  The loop
    applies it elastically: scale-up returns parked boards
    immediately (cold), scale-down parks boards as they drain free.
    Subclasses implement :meth:`desired`; the base class owns the
    clamp and the anti-flapping cooldown.
    """

    name = "base"

    def __init__(self, interval_s: float = 0.01,
                 cooldown_s: float = 0.0,
                 min_boards: int = 1,
                 max_boards: Optional[int] = None):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if min_boards < 1:
            raise ValueError("min_boards must be >= 1 (an empty pool "
                             "could never serve the queue again)")
        if max_boards is not None and max_boards < min_boards:
            raise ValueError("max_boards must be >= min_boards")
        self.interval_s = float(interval_s)
        self.cooldown_s = float(cooldown_s)
        self.min_boards = int(min_boards)
        self.max_boards = max_boards
        self._target = 0
        self._last_change_s = -math.inf

    def begin(self, num_devices: int) -> None:
        """Resolve bounds against the actual pool; the run starts
        fully provisioned (scale-down is an observed decision, never
        an initial condition)."""
        if self.max_boards is None:
            self.max_boards = num_devices
        self.max_boards = min(self.max_boards, num_devices)
        self.min_boards = min(self.min_boards, self.max_boards)
        self._target = num_devices
        self._last_change_s = -math.inf

    def desired(self, signals: ScaleSignals) -> int:
        raise NotImplementedError

    def decide(self, signals: ScaleSignals) -> int:
        want = self.desired(signals)
        want = max(self.min_boards, min(want, self.max_boards))
        if want != self._target:
            # Boundary-exact, like window_index: an eval landing
            # exactly ``cooldown`` after the last change may change
            # again — ``t - last`` carries a couple ulps of float
            # error that a plain ``<`` would turn into an extra
            # window of hold.
            elapsed = signals.t - self._last_change_s
            if elapsed < self.cooldown_s - 256.0 * math.ulp(signals.t):
                return self._target
            self._target = want
            self._last_change_s = signals.t
        return self._target

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ReactiveScalePolicy(ScalePolicy):
    """Threshold control on windowed utilization and backlog.

    Scale up ``step`` boards when the window's utilization reached
    ``high`` — or the queue backed up past one job per provisioned
    board, the leading edge of a burst a utilization average lags —
    and down ``step`` when utilization fell to ``low`` with an empty
    queue.  The inherited ``cooldown`` spaces target changes.
    """

    name = "reactive"

    def __init__(self, low: float = 0.3, high: float = 0.85,
                 step: int = 1, **kwargs):
        super().__init__(**kwargs)
        if not 0.0 <= low < high:
            raise ValueError("need 0 <= low < high")
        if step < 1:
            raise ValueError("step must be >= 1")
        self.low = float(low)
        self.high = float(high)
        self.step = int(step)

    def desired(self, signals: ScaleSignals) -> int:
        if (signals.utilization >= self.high
                or signals.queue_depth > signals.provisioned):
            return self._target + self.step
        if signals.utilization <= self.low and signals.queue_depth == 0:
            return self._target - self.step
        return self._target

    def __repr__(self):
        return (f"ReactiveScalePolicy(low={self.low:g}, "
                f"high={self.high:g}, step={self.step}, "
                f"cooldown_s={self.cooldown_s:g}, "
                f"interval_s={self.interval_s:g})")


class PredictiveScalePolicy(ScalePolicy):
    """Rate-trend sizing: provision for where the arrival rate is
    *going*, not where it was.

    Keeps the per-window arrival rates of the last ``window_s``
    seconds, fits a least-squares linear trend, extrapolates
    ``horizon_s`` ahead, and converts the predicted rate to boards
    with the measured board-seconds-per-job at ``target_util``
    utilization headroom.  Until a first batch completes there is no
    capacity oracle, so the policy holds the current target.

    With ``availability_aware`` (spec option ``avail=1``) the sized
    board count is divided by the window's empirical availability
    (floored at :data:`AVAILABILITY_FLOOR` so a fully-down window
    cannot demand an unbounded fleet): capacity planning prices
    expected failures — 10 boards of work at 80% availability needs
    12.5 provisioned boards, not 10.
    """

    name = "predictive"

    def __init__(self, window_s: float = 0.1, horizon_s: float = 0.05,
                 target_util: float = 0.7,
                 availability_aware: bool = False, **kwargs):
        super().__init__(**kwargs)
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if horizon_s < 0:
            raise ValueError("horizon_s must be >= 0")
        if not 0.0 < target_util <= 1.0:
            raise ValueError("target_util must be in (0, 1]")
        self.window_s = float(window_s)
        self.horizon_s = float(horizon_s)
        self.target_util = float(target_util)
        self.availability_aware = bool(availability_aware)
        self._history: "deque[Tuple[float, float]]" = deque()

    def begin(self, num_devices: int) -> None:
        super().begin(num_devices)
        self._history.clear()

    def _predicted_rate(self, t: float) -> float:
        points = self._history
        if len(points) >= 2 and points[-1][0] > points[0][0]:
            mean_t = sum(p[0] for p in points) / len(points)
            mean_r = sum(p[1] for p in points) / len(points)
            denom = sum((p[0] - mean_t) ** 2 for p in points)
            slope = sum((p[0] - mean_t) * (p[1] - mean_r)
                        for p in points) / denom
            intercept = mean_r - slope * mean_t
            rate = intercept + slope * (t + self.horizon_s)
        else:
            rate = points[-1][1]
        return max(rate, 0.0)

    def desired(self, signals: ScaleSignals) -> int:
        self._history.append((signals.t, signals.arrival_rate))
        while (self._history
               and self._history[0][0] < signals.t - self.window_s):
            self._history.popleft()
        if signals.service_s_per_job <= 0:
            return self._target
        rate = self._predicted_rate(signals.t)
        boards = rate * signals.service_s_per_job / self.target_util
        if self.availability_aware:
            boards /= max(signals.availability, AVAILABILITY_FLOOR)
        return int(math.ceil(boards)) if boards > 0 else self.min_boards

    def __repr__(self):
        return (f"PredictiveScalePolicy(window_s={self.window_s:g}, "
                f"horizon_s={self.horizon_s:g}, "
                f"target_util={self.target_util:g}, "
                f"availability_aware={self.availability_aware}, "
                f"cooldown_s={self.cooldown_s:g}, "
                f"interval_s={self.interval_s:g})")


class ScheduleScalePolicy(ScalePolicy):
    """Scripted targets: explicit ``(t_s, boards)`` steps.

    The deterministic chaos-test input for the autoscale loop (the
    analogue of :class:`repro.runtime.faults.TraceFaultProcess`):
    tests can force a scale-down mid-batch or a precise resize
    sequence without depending on a feedback policy's dynamics.
    """

    name = "schedule"

    def __init__(self, steps: Sequence[Tuple[float, int]], **kwargs):
        super().__init__(**kwargs)
        self.steps = sorted((float(t), int(boards))
                            for t, boards in steps)

    def desired(self, signals: ScaleSignals) -> int:
        want = self._target
        for t, boards in self.steps:
            if t <= signals.t:
                want = boards
            else:
                break
        return want

    def __repr__(self):
        return f"ScheduleScalePolicy({self.steps!r})"


class SpareScalePolicy(ScalePolicy):
    """Warm-standby sizing: keep ``n`` boards parked as spares that
    absorb failures before gangs re-stripe.

    The successor to PR 8's fixed-size degraded re-planning: instead
    of shrinking stripes the moment a board dies, the fleet holds
    ``n`` spares out of service (zero provisioned board-seconds) and
    returns one for every in-service board found down or dead — gangs
    keep their planned width until the spare pool is exhausted, and
    only then does degraded re-planning kick in.

    Standalone, the serving base is ``num_devices - n`` boards (the
    capacity a spares-provisioned fleet actually sells).  Composed
    around an inner policy (spec ``inner+spare:n=``, e.g.
    ``predictive:target=0.7+spare:n=1``), the inner policy sizes the
    base elastically — its own cooldown and bounds intact — and the
    spare layer adds one board per discovered in-service outage,
    capped at the surviving pool (``signals.alive``).
    """

    name = "spare"

    def __init__(self, n: int = 1, inner: Optional[ScalePolicy] = None,
                 **kwargs):
        if n < 0:
            raise ValueError("n must be >= 0")
        if inner is not None and "interval_s" not in kwargs:
            kwargs["interval_s"] = inner.interval_s
        super().__init__(**kwargs)
        self.spares = int(n)
        self.inner = inner
        self._base = 0

    def begin(self, num_devices: int) -> None:
        super().begin(num_devices)
        if self.inner is not None:
            self.inner.begin(num_devices)
        self._base = max(self.min_boards, num_devices - self.spares)

    def desired(self, signals: ScaleSignals) -> int:
        base = (self.inner.decide(signals)
                if self.inner is not None else self._base)
        want = base + signals.down_in_service
        if signals.alive is not None:
            want = min(want, signals.alive)
        return want

    def __repr__(self):
        return (f"SpareScalePolicy(n={self.spares}, "
                f"inner={self.inner!r}, "
                f"interval_s={self.interval_s:g})")


def make_scale_policy(spec) -> ScalePolicy:
    """Build a scale policy from a CLI spec string (or pass an
    instance through).

    ``reactive:low=0.3,high=0.85,step=1,cooldown=0.05`` ·
    ``predictive:window=0.1,horizon=0.05,target=0.7,cooldown=0.05``
    (add ``avail=1`` for availability-aware sizing) ·
    ``spare:n=1`` (hold ``n`` warm standbys).
    All accept ``interval=`` (control-window seconds), ``min=`` and
    ``max=`` (board bounds; ``max`` defaults to the pool size).
    Compose a spare layer around an elastic base with ``+``:
    ``predictive:target=0.7+spare:n=1``.
    """
    if isinstance(spec, ScalePolicy):
        return spec
    if "+" in spec:
        base_spec, _, spare_spec = spec.rpartition("+")
        spare_name, _, spare_rest = spare_spec.partition(":")
        if spare_name.strip().lower() != "spare":
            raise SpecError(
                f"composed scale spec {spec!r} must end in "
                f"spare:n=... (got {spare_name.strip()!r})")
        inner = make_scale_policy(base_spec)
        kwargs = parse_spec_kwargs(spare_rest, what="autoscale")
        n, cooldown = take_spec_options(
            kwargs, spec, what="scale policy", n=1, cooldown=0.0)
        return SpareScalePolicy(n=int(n), inner=inner,
                                cooldown_s=cooldown)
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    kwargs = parse_spec_kwargs(rest, what="autoscale")
    if name == "reactive":
        (low, high, step, cooldown, interval, min_boards,
         max_boards) = take_spec_options(
            kwargs, spec, what="scale policy", low=0.3, high=0.85,
            step=1, cooldown=0.0, interval=0.01, min=1, max=math.nan)
        return ReactiveScalePolicy(
            low=low, high=high, step=int(step), cooldown_s=cooldown,
            interval_s=interval, min_boards=int(min_boards),
            max_boards=(None if math.isnan(max_boards)
                        else int(max_boards)))
    if name == "predictive":
        (window, horizon, target, avail, cooldown, interval,
         min_boards, max_boards) = take_spec_options(
            kwargs, spec, what="scale policy", window=0.1,
            horizon=0.05, target=0.7, avail=0, cooldown=0.0,
            interval=0.01, min=1, max=math.nan)
        return PredictiveScalePolicy(
            window_s=window, horizon_s=horizon, target_util=target,
            availability_aware=bool(avail),
            cooldown_s=cooldown, interval_s=interval,
            min_boards=int(min_boards),
            max_boards=(None if math.isnan(max_boards)
                        else int(max_boards)))
    if name == "spare":
        (n, cooldown, interval, min_boards,
         max_boards) = take_spec_options(
            kwargs, spec, what="scale policy", n=1, cooldown=0.0,
            interval=0.01, min=1, max=math.nan)
        return SpareScalePolicy(
            n=int(n), cooldown_s=cooldown, interval_s=interval,
            min_boards=int(min_boards),
            max_boards=(None if math.isnan(max_boards)
                        else int(max_boards)))
    raise SpecError(f"unknown scale policy {name!r}; "
                    f"try: {', '.join(SCALE_POLICIES)}")


__all__ = [
    "AVAILABILITY_FLOOR", "SCALE_POLICIES", "PredictiveScalePolicy",
    "ReactiveScalePolicy", "ScaleSignals", "ScalePolicy",
    "ScheduleScalePolicy", "SpareScalePolicy", "make_scale_policy",
]
