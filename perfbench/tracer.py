"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code: ``install`` replaces
selected public functions of blamebox with timing wrappers at every module
that binds them by name (blamebox modules import each other's functions
with ``from .x import f``, so patching the defining module alone would miss
most calls), and ``restore`` puts the originals back.

A span is (id, name, start, end, parent id, thread id). The parent is the
innermost open span of the same thread; a span opened on a thread with no
open span (a worker of the planner's gain pool) takes the innermost open
span of the main thread, which is the span that submitted the work.
Recording is guarded by a lock because gain evaluations run in pool threads.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, fn, name: str, on_return=None):
        """Timing wrapper; ``on_return(tracer, args, kwargs, result)`` may
        record counters outside the timed interval."""

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            with self._lock:
                sid = len(self.spans)
                stack = self._stacks.setdefault(tid, [])
                parent_stack = stack or self._stacks.get(self._main, [])
                parent = parent_stack[-1] if parent_stack else None
                span = Span(sid, name, 0.0, 0.0, parent, tid)
                self.spans.append(span)
                stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                with self._lock:
                    stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Patch each ``(module_name, attr, span_name, on_return)`` target at
        every loaded ``blamebox`` module that binds the same object."""
        for module_name, attr, span_name, on_return in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, span_name, on_return)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "blamebox" or mod_name.startswith("blamebox.")) \
                        and getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and total self time.

        Self time is a span's duration minus the part of its interval that
        its children cover; children running concurrently on pool threads
        are merged first, so overlapping children are not subtracted twice.
        """
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            covered = 0.0
            cur_start = cur_end = None
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, s.start), min(c.end, s.end)
                if hi <= lo:
                    continue
                if cur_end is None or lo > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = lo, hi
                else:
                    cur_end = max(cur_end, hi)
            if cur_end is not None:
                covered += cur_end - cur_start
            agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += s.end - s.start
            agg["self_s"] += (s.end - s.start) - covered
        return out
