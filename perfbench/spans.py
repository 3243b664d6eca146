"""In-memory span tracing around the toolkit's public functions.

A span is recorded for each call of a wrapped function: name, start, end,
parent span and pass id. Functions are wrapped at the module attribute the
CLI calls through (``align.train_alignment``, ``cli.read_parallel``, ...),
so calls made by the CLI and by other toolkit modules are both seen.
Spans are kept on one stack, so only functions the main thread calls are
wrapped. With ``memory`` set, each span also records its tracemalloc peak
above the memory in use when it started.
"""

import functools
import json
from contextlib import contextmanager
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    peak_bytes: int = 0


class Tracer:
    def __init__(self, pass_id: str, memory: bool = False):
        self.pass_id = pass_id
        self.memory = memory
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[tuple[Span, int, int]] = []  # span, base bytes, running peak
        self._wrapped: list[tuple[object, str, object]] = []  # module, attr, original
        if memory:
            tracemalloc.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        """Stop tracing: put back every wrapped function, so that calls made
        after the pass (the output checks) record no spans."""
        for module, attr, fn in reversed(self._wrapped):
            setattr(module, attr, fn)
        self._wrapped.clear()
        if self.memory:
            tracemalloc.stop()

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0].sid if self._stack else None
        base = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            self._lift_parent(peak)
            tracemalloc.reset_peak()
            base = current
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append((span, base, base))

    def _close(self) -> None:
        end = time.perf_counter()
        span, base, running = self._stack.pop()
        span.end = end
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            top = max(running, peak)
            span.peak_bytes = top - base
            self._lift_parent(top)
            tracemalloc.reset_peak()

    def _lift_parent(self, peak: int) -> None:
        if self._stack:
            span, base, running = self._stack[-1]
            self._stack[-1] = (span, base, max(running, peak))

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Replace ``module.attr`` with a traced version. ``name`` is the span
        name, or a function of (args, kwargs) giving it. ``count(counters,
        args, kwargs, result)`` records counts at the same boundary."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        self._wrapped.append((module, attr, fn))
        setattr(module, attr, traced)

    def summary(self) -> dict:
        """Calls, total and self seconds, and peak MB per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "peak_mb": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - child_time[s.sid]
            row["peak_mb"] = max(row["peak_mb"], s.peak_bytes / 2**20)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "pass": self.pass_id, "id": s.sid, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, "peak_bytes": s.peak_bytes,
                }) + "\n")

