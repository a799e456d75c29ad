"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only from outside the program: :meth:`Tracer.wrap`
swaps a public callable (a class method, an instance method or a
module-level function) for a wrapper that opens a span around each call
and counts it, and :meth:`Tracer.restore` puts every original back.
Nothing under ``src/`` knows it is being traced.

Each span records its name, start, end, parent span and root span; the
root is the pass (or set-up) the span belongs to, so the spans of one
pass share an id.  Spans stay in memory until the run ends, when
:meth:`Tracer.dump` writes them out.

Attribution follows the self-time rule: a span's self time is its
duration minus the part of it that its child spans cover.  Summed over
every span under a root, self times reconstruct the root's duration,
which :func:`attribution` checks before any layer figure is trusted.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(slots=True)
class Span:
    """One timed call at a layer boundary."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    root: int


class Tracer:
    """Records nested spans and per-boundary call counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, name, self.clock(), float("nan"),
                    parent.sid if parent else None,
                    parent.root if parent else sid)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span named ``name``."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- boundary patching ---------------------------------------------

    def wrap(self, owner: object, attr: str, name: str,
             materialize: bool = False,
             on_result: Optional[Callable[["Tracer", object], None]]
             = None) -> None:
        """Replace ``owner.attr`` by a spanning, counting wrapper.

        ``owner`` is a class (every instance is traced), an instance
        (only that object is), or a module (a module-level function).
        ``materialize`` drains a returned iterator inside the span, so a
        generator's work is charged to its own boundary; the caller gets
        an equivalent iterator.  ``on_result`` sees each call's result
        and may record extra counts.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        target = getattr(owner, attr)
        calls = name + ".calls"

        @functools.wraps(target)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = target(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                self._close(span)
            self.counts[calls] = self.counts.get(calls, 0) + 1
            if on_result is not None:
                on_result(self, result)
            return iter(result) if materialize else result

        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {attr!r}: wrap the function")
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def patched(self, boundaries: Iterable[Tuple]):
        """Wrap each ``(owner, attr, name[, kwargs])`` for the block."""
        try:
            for boundary in boundaries:
                owner, attr, name, *rest = boundary
                self.wrap(owner, attr, name, **(rest[0] if rest else {}))
            yield self
        finally:
            self.restore()

    # -- output --------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans column-wise (one list per field) plus counts."""
        columns = {field: [getattr(s, field) for s in self.spans]
                   for field in ("sid", "name", "start", "end", "parent",
                                 "root")}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": columns, "counts": self.counts}, fh)


def _covered(start: float, end: float,
             intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.sid: (span.end - span.start)
            - _covered(span.start, span.end, children.get(span.sid, ()))
            for span in spans}


@dataclass
class Attribution:
    """Röhl-style reconciliation of one root span."""

    total_s: float  # the root span's duration
    attributed_s: float  # self time of every span below the root
    residual_s: float  # the root's own self time (uninstrumented)
    ok: bool


def attribution(spans: List[Span], root: int,
                tolerance: float = 1e-6) -> Attribution:
    """Check that layer self times plus the residual sum to the root.

    Also fails when a child span leaks outside its parent, which would
    make self times meaningless.
    """
    tree = [s for s in spans if s.root == root]
    by_id = {s.sid: s for s in tree}
    selfs = self_times(tree)
    top = by_id[root]
    total = top.end - top.start
    residual = selfs[root]
    attributed = sum(v for sid, v in selfs.items() if sid != root)
    nested = all(by_id[s.parent].start <= s.start <= s.end
                 <= by_id[s.parent].end
                 for s in tree if s.parent is not None)
    ok = nested and abs(attributed + residual - total) <= tolerance * max(
        1.0, total)
    return Attribution(total, attributed, residual, ok)


def layer_self_times(spans: List[Span], root: int) -> Dict[str, float]:
    """Self time per span name below one root (the root excluded)."""
    tree = [s for s in spans if s.root == root]
    names = {s.sid: s.name for s in tree}
    out: Dict[str, float] = {}
    for sid, value in self_times(tree).items():
        if sid != root:
            out[names[sid]] = out.get(names[sid], 0.0) + value
    return out
