"""How fast the host runs right now, sampled while the program runs.

The benchmark shares a few cores of a machine with other tenants, and
the speed those cores give one process drifts by tens of percent within
seconds and over minutes, CPU time as much as wall time.  So while a
step is timed, a timer signal interrupts the program every
``INTERVAL_S`` and runs a tiny fixed kernel, and host times are
reported at a fixed reference speed: ``wall time * NOMINAL_S / median
kernel time``.  A step that does twice the work still reads twice as
long; a host that runs slower does not.

The kernel is numpy calls on a 64-element int64 array (the N=64 NTTs)
and an interpreter loop (the DES loops).  It touches no code of the
program, so a change to the program cannot change it, and its working
set is a few cache lines, so the program's footprint hardly does.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Seconds between kernel runs; each takes about a millisecond, so the
#: kernel adds about 3% to the wall time it samples.
INTERVAL_S = 0.05
#: The kernel's median time on the 2-vCPU build host; host times are
#: reported at this speed.
NOMINAL_S = 0.0015

_ARRAY = np.arange(64, dtype=np.int64)


def kernel() -> int:
    a = _ARRAY
    for _ in range(200):
        a = (a * 3 + 5) % 1_000_003
    total = 0
    for i in range(15_000):
        total += i
    return total + int(a[0])


class SpeedSampler:
    """While active, runs ``kernel`` on every ``SIGALRM`` tick of an
    interval timer and appends its time to ``samples``."""

    def __init__(self):
        self.samples: List[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference_speed(seconds: float, samples: Sequence[float]) -> float:
    """``seconds`` of wall time, rescaled to the speed at which the
    kernel takes ``NOMINAL_S``, given kernel times sampled meanwhile."""
    return seconds * NOMINAL_S / statistics.median(samples)
