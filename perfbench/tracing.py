"""Span recording from outside the program, and self-time arithmetic on the spans.

The tracer replaces module attributes with timing wrappers, so it measures
the call boundaries the package already has without editing its source.
Spans stay in memory until the run ends. Stdlib only, so the self-tests run
without numpy.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None  # the span that caused this one, possibly on another thread
    name: str
    thread: int
    start: float  # time.perf_counter(), shared by every thread of the process
    end: float
    error: str | None  # exception class name if the call raised


class Tracer:
    """Thread-safe in-memory span recorder.

    A span's parent is the innermost open span on its own thread. A span
    opened on a thread with no open span (a pool worker) takes the innermost
    open span of the thread that created the tracer, which is the call that
    started the pool; this is how frame spans on worker threads hang under
    ``link.run_ber_point``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        try:
            return self._home_stack[-1]
        except IndexError:  # the home thread closed its span meanwhile, or has none
            return None

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records one span called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(span_id, parent, name, threading.get_ident(), start, end, error)
                with self._lock:
                    self.spans.append(span)

        return traced

    @contextlib.contextmanager
    def installed(self, targets, homes: dict, importers):
        """Wrap each "module.function" in `targets` for the duration of the block.

        `homes` maps a module label to the module that defines the functions;
        the wrapper replaces the original wherever the home module or one of
        `importers` binds it. Yields the targets that could not be found
        (renamed or removed), which stay unwrapped. The originals are put
        back on exit, also when the block raises.
        """
        absent = []
        try:
            for target in targets:
                label, func = target.split(".", 1)
                home = homes.get(label)
                original = getattr(home, func, None) if home is not None else None
                if not callable(original):
                    absent.append(target)
                    continue
                traced = self.wrap(target, original)
                for module in (home, *importers):
                    if getattr(module, func, None) is original:
                        self._patches.append((module, func, original))
                        setattr(module, func, traced)
            yield absent
        finally:
            while self._patches:
                module, func, original = self._patches.pop()
                setattr(module, func, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part its children cover.

    Children on one thread never overlap; children on two pool threads can,
    so the covered part is the union of their intervals, not their sum.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_table(spans, windows, names) -> dict[str, tuple[float, float]]:
    """Per name: (calls per window, median self seconds per window).

    `windows` are the (start, end) times of the traced sweeps, in order; a
    span belongs to the window its start falls in. Self times of spans that
    ran at the same time on two threads both count, so a name's figure is
    busy time and the names of one window can add up to more than its wall
    time.
    """
    if not windows:
        return {name: (0.0, 0.0) for name in names}
    selfs = self_times(spans)
    starts = [lo for lo, _ in windows]
    calls = {name: [0] * len(windows) for name in names}
    busy = {name: [0.0] * len(windows) for name in names}
    for s in spans:
        w = bisect.bisect_right(starts, s.start) - 1
        if s.name in calls and w >= 0 and s.start < windows[w][1]:
            calls[s.name][w] += 1
            busy[s.name][w] += selfs[s.id]
    return {
        name: (sum(calls[name]) / len(windows), statistics.median(busy[name]))
        for name in names
    }
