"""The columnar MetricsRecorder against its per-event oracle.

:class:`MetricsRecorder` buffers hook events and buckets them into
windows in vectorized passes; ``_metrics_reference`` keeps the
per-event recorder it replaced.  On any hook stream the two must
produce the same ``to_dict()`` with ``==`` (and the same JSON text, so
not even an int-vs-float type may drift): exactness, not round-off
tolerance, is the contract.  The streams hit what the vectorized
passes must get right: instants of exactly ``k * w``, zero-length and
multi-window spans, ``t = inf`` clamps, killed batches, boards that
first appear mid-run, and streams longer than the flush constant (or
a tiny patched one, so every example crosses many flushes).

The memory test holds the point of the chunked flush: buffered rows
never exceed ``FLUSH_EVENTS``, and what the recorder retains grows
with its window count, not its event count.
"""

from __future__ import annotations

import gc
import json
import math
import pathlib
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRecorder, metrics, window_index
from repro.obs.metrics import window_indices
from repro.runtime.policies import PriceSignal

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _metrics_reference import ReferenceMetricsRecorder  # noqa: E402

STATES = ("active", "draining", "parked", "failed", "repairing")
QUEUES = [(job_class, tenant) for job_class in ("a", "b")
          for tenant in ("t0", "t1", "t2")]


@st.composite
def hook_streams(draw):
    """``(window_s, events)``: a run_begin, a random mix
    of every consumed hook, then a run_end."""
    w = draw(st.sampled_from([0.1, 0.013, 1.0, 0.3])
             | st.floats(min_value=1e-3, max_value=2.0))
    devices = draw(st.integers(min_value=1, max_value=4))
    instant = (st.integers(min_value=0, max_value=12).map(lambda k: k * w)
               | st.floats(min_value=0.0, max_value=12 * w))
    clampable = instant | st.just(math.inf)
    # Span lengths: empty, a sliver, up to a window, many windows.
    length = (st.just(0.0) | st.just(1e-12)
              | st.floats(min_value=0.0, max_value=w)
              | st.integers(min_value=1, max_value=6).map(lambda k: k * w)
              | st.floats(min_value=w, max_value=8 * w))
    board = st.integers(min_value=0, max_value=devices + 1)
    stats = st.tuples(*[st.integers(min_value=0, max_value=1 << 40)]
                      * len(metrics._CACHE_KEYS))

    def batch():
        return st.builds(
            lambda start, span, gang, cached, slo, cost, killed: (
                "batch", dict(
                    start=start, finish=start + span, job_class="a",
                    tenant="t0", batch_size=gang[1], launch_s=span / 4,
                    members=[(b, span / 2, miss) for b, miss in gang[0]],
                    cache_stats=(tuple(cached[:len(gang[0])])
                                 if len(cached) >= len(gang[0]) else ()),
                    slo_met=min(slo), slo_total=max(slo), cost=cost,
                    killed=killed)),
            instant, length,
            st.tuples(
                st.lists(st.tuples(board, st.sampled_from([0, 0, 1 << 20,
                                                           12345])),
                         min_size=1, max_size=3, unique_by=lambda m: m[0]),
                st.integers(min_value=1, max_value=8)),
            st.lists(stats, max_size=3),
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            # Costs with rounding in them, so the order of a window's
            # adds shows in its sum.
            st.floats(min_value=0.0, max_value=10.0).map(
                lambda c: c / 3.0 + 0.1),
            st.booleans())

    event = st.one_of(
        batch(), batch(),
        st.builds(lambda t, total, depths: ("queue_sample", dict(
            t=t, total=total, depths=depths)),
            clampable, st.integers(0, 12),
            st.none() | st.dictionaries(st.sampled_from(QUEUES),
                                        st.integers(0, 5))),
        st.builds(lambda t: ("job_rejected", dict(
            t=t, job_id=0, job_class="a", tenant="t0")), clampable),
        st.builds(lambda t, b, h: ("board_fault", dict(
            t=t, board=b, healthy=h)),
            clampable, board, st.none() | st.integers(0, devices)),
        st.builds(lambda t, b, h: ("board_repair", dict(
            t=t, board=b, healthy=h)),
            clampable, board, st.none() | st.integers(0, devices)),
        st.builds(lambda t, b, up, p: ("pool_resize", dict(
            t=t, board=b, direction="up" if up else "down",
            provisioned=p)),
            clampable, board, st.booleans(),
            st.none() | st.integers(0, devices)),
        st.builds(lambda t, b, old, new: ("ledger_transition", dict(
            t=t, board=b, old=old, new=new)),
            clampable, board, st.sampled_from(STATES),
            st.sampled_from(STATES)),
    )
    events = draw(st.lists(event, max_size=60))
    makespan = draw(instant)
    price = draw(st.none() | st.just(PriceSignal.diurnal(slot_s=2.5 * w)))
    return w, [
        ("run_begin", dict(scenario="s", num_devices=devices,
                           policy="edf", price=price)),
        *events,
        ("run_end", dict(makespan_s=makespan,
                         device_busy_s=(0.0,) * devices, jobs_done=0)),
    ]


def _play(recorder, events):
    for name, kwargs in events:
        getattr(recorder, name)(**kwargs)
    return recorder


def _assert_same(window_s, events, track_queues=True):
    got = _play(MetricsRecorder(window_s=window_s,
                                track_queues=track_queues), events)
    want = _play(ReferenceMetricsRecorder(window_s=window_s,
                                          track_queues=track_queues),
                 events)
    assert got.num_windows == want.num_windows
    assert got.peak_queue_depth == want.peak_queue_depth
    got_dict, want_dict = got.to_dict(), want.to_dict()
    assert got_dict == want_dict
    assert json.dumps(got_dict) == json.dumps(want_dict)


@given(stream=hook_streams(), flush=st.sampled_from([1, 2, 5, 64]),
       track_queues=st.booleans())
@settings(max_examples=200, deadline=None)
def test_columnar_recorder_equals_per_event_oracle(stream, flush,
                                                   track_queues):
    """A tiny patched flush constant makes every stream cross many
    chunk boundaries."""
    window_s, events = stream
    with mock.patch.object(metrics, "FLUSH_EVENTS", flush):
        _assert_same(window_s, events, track_queues)


@given(stream=hook_streams(), repeats=st.integers(min_value=2, max_value=4))
@settings(max_examples=10, deadline=None)
def test_streams_longer_than_the_flush_constant(stream, repeats):
    """The real constant: the stream's batches are tiled, each copy
    shifted by a fraction of a window (so the horizon stays short and
    many adds pile into the same windows), until they hold several
    flushes' worth of rows."""
    window_s, events = stream
    body = [(name, kwargs) for name, kwargs in events[1:-1]
            if name == "batch"]
    if not body:
        body = [("batch", dict(start=0.0, finish=window_s, job_class="a",
                               tenant="t0", batch_size=1, launch_s=0.0,
                               members=[(0, 0.0, 1)]))]
    copies = repeats * metrics.FLUSH_EVENTS // len(body) + 1
    tiled = [
        (name, dict(kwargs, start=kwargs["start"] + shift,
                    finish=kwargs["finish"] + shift))
        for k in range(copies) for name, kwargs in body
        for shift in [(k % 5) * 0.37 * window_s]]
    _assert_same(window_s, [events[0], *tiled, events[-1]])


@given(window_s=st.floats(min_value=1e-6, max_value=10.0),
       ts=st.lists(st.floats(min_value=-1.0, max_value=1e6)
                   | st.integers(0, 10_000).map(float), max_size=50),
       ks=st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                             st.integers(min_value=0, max_value=600)),
                   max_size=20))
def test_window_indices_match_scalar(window_s, ts, ks):
    """Element for element, boundary instants ``k * w`` included, and
    instants a few hundred ulps below them (either side of the
    tolerance)."""
    for k, below in ks:
        t = k * window_s
        ts += [t, t - below * math.ulp(t)]
    got = window_indices(np.array(ts, dtype=np.float64), window_s)
    assert got.tolist() == [window_index(t, window_s) for t in ts]


def _snapshot_batch(start, boards, counters, **kwargs):
    """A one-window batch on ``boards`` whose caches report
    ``counters`` (one tuple per board)."""
    return ("batch", dict(
        start=start, finish=start + 0.04, job_class="a", tenant="t0",
        batch_size=1, launch_s=0.01,
        members=[(board, 0.01, 64) for board in boards],
        cache_stats=counters, **kwargs))


@pytest.mark.parametrize("flush", [1, 2])
def test_pool_cache_aggregate_across_flushes(flush):
    """Per-board deltas carried across flushes: a three-board gang
    snapshot, a board whose first snapshot lands after several
    flushes, counters that fall (a wipe drops resident bytes), and a
    batch without snapshots in between."""
    events = [
        ("run_begin", dict(scenario="s", num_devices=4, policy="edf")),
        _snapshot_batch(0.0, [0, 1], [(1, 2, 3, 4, 5, 6),
                                      (10, 20, 30, 40, 50, 60)]),
        _snapshot_batch(0.05, [2, 0, 1], [(100, 200, 300, 400, 500, 600),
                                          (2, 3, 4, 5, 6, 7),
                                          (11, 21, 31, 41, 51, 0)]),
        ("queue_sample", dict(t=0.1, total=3, depths={("a", "t0"): 3})),
        _snapshot_batch(0.12, [1], ()),
        _snapshot_batch(0.25, [3], [(7, 7, 7, 7, 7, 7000)]),
        _snapshot_batch(0.31, [0, 3], [(9, 9, 9, 9, 9, 0),
                                       (8, 8, 8, 8, 8, 8)], killed=True),
        _snapshot_batch(0.33, [2], [(101, 201, 301, 401, 501, 601)]),
        ("run_end", dict(makespan_s=0.4, device_busy_s=(0.0,) * 4)),
    ]
    with mock.patch.object(metrics, "FLUSH_EVENTS", flush):
        _assert_same(0.1, events)
        got = _play(MetricsRecorder(window_s=0.1), events).to_dict()
    # Known answer: the last window holds the sum of each board's
    # latest counters (boards 1, 0, 3 and 2 in that order).
    windows = got["windows"]
    assert windows["key_resident_bytes"][-1] == 0 + 0 + 8 + 601
    assert windows["key_bytes_evicted"][-1] == 51 + 9 + 8 + 501
    assert windows["key_hit_rate"][-1] == (11 + 9 + 8 + 101) / (
        11 + 9 + 8 + 101 + 21 + 9 + 8 + 201)


def _buffered(recorder) -> int:
    return max(len(recorder._pt_t), len(recorder._sp_t0),
               len(recorder._hold_t), len(recorder._snap_t),
               len(recorder._snap_b))


def test_snapshot_rows_count_toward_the_flush_bound():
    """Zero-length three-board batches buffer no span and two points
    each, but three snapshot member rows: those rows alone must
    trigger the flush."""
    recorder = MetricsRecorder(window_s=0.1)
    recorder.run_begin(scenario="s", num_devices=3, policy="edf")
    with mock.patch.object(metrics, "FLUSH_EVENTS", 8):
        for i in range(20):
            recorder.batch(start=i * 0.01, finish=i * 0.01, job_class="a",
                           tenant="t0", batch_size=1, launch_s=0.0,
                           members=[(b, 0.0, 0) for b in range(3)],
                           cache_stats=[(i, 0, 0, 0, 0, b) for b in range(3)])
            assert _buffered(recorder) < 8


def _retained_bytes(batches: int, window_s: float,
                    horizon_s: float = 10.0) -> int:
    """Bytes a recorder still holds after ``batches`` evenly spread
    two-board batches over ``horizon_s``, checking the buffer bound
    after every hook."""
    gangs = [((board, 0.0, 64), ((board + 1) % 4, 0.0, 0))
             for board in range(4)]
    stats = ((0,) * len(metrics._CACHE_KEYS),) * 2
    step = horizon_s / batches
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        recorder = MetricsRecorder(window_s=window_s)
        recorder.run_begin(scenario="s", num_devices=4, policy="fifo")
        peak_buffered = 0
        for i in range(batches):
            start = i * step
            recorder.batch(
                start=start, finish=start + 3 * step, job_class="a",
                tenant="t0", batch_size=1, launch_s=0.0,
                members=gangs[i % 4],
                cache_stats=stats if i % 64 == 0 else (), cost=1.0)
            peak_buffered = max(peak_buffered, _buffered(recorder))
        recorder.run_end(makespan_s=horizon_s)
        assert peak_buffered <= metrics.FLUSH_EVENTS
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_memory_grows_with_windows_not_events():
    few = _retained_bytes(20_000, window_s=0.01)
    many = _retained_bytes(200_000, window_s=0.01)
    wide = _retained_bytes(20_000, window_s=0.001)
    # Window capacity doubles on demand, so equal window counts may
    # retain up to twice the bytes of each other.  Ten times the
    # events stays inside that; ten times the windows does not.
    assert many < 3 * few
    assert wide > 4 * few
