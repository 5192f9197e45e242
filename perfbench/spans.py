"""In-memory spans and counters recorded around calls into maxstab.

A span has a name, a start and end time, the span open around it (its
parent) and the operation it belongs to; every span of one benchmark
operation shares that operation's id.  Spans are kept in a list and
written out once, when the run ends.  Counters (uniforms drawn, values
simulated, bytes written) are attached to spans at the same boundaries.

Nothing here touches the package's own files: the benchmark substitutes
wrapped callables for the public names it calls, and for the few names
the package resolves at call time (``maxstab.analysis.independence_test``
and the names ``maxstab.cli`` imports), patches them in place while a
traced section runs.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "counters")

    def __init__(self, sid, parent, op, name, start):
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = None
        self.counters = None

    def add(self, key, value):
        if self.counters is None:
            self.counters = {}
        self.counters[key] = self.counters.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = 0

    def open(self, name: str, new_op: bool = False) -> Span:
        """Start a span; new_op starts a new operation id for it and for
        every span opened beneath it."""
        if new_op:
            self._op += 1
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._op, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str, new_op: bool = False):
        s = self.open(name, new_op)
        try:
            yield s
        finally:
            self.close(s)

    def count(self, key: str, value) -> None:
        """Add to every open span, so each span's counters are inclusive of
        the work done beneath it."""
        for s in self._stack:
            s.add(key, value)

    def wrap(self, name: str, fn, measure=None):
        """fn with a span around each call; measure(result) may return
        counters for that span."""
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if measure is not None:
                for key, value in measure(result).items():
                    s.add(key, value)
            return result
        traced.__wrapped__ = fn
        return traced

    def counting_rng(self, base):
        """Subclass of ``base`` (RngState) that reports every uniform call
        to the open spans: calls, uniforms drawn and seconds inside."""
        tracer = self

        class CountingRng(base):
            def uniform(self, size=None):
                t = perf_counter()
                out = super().uniform(size)
                dt = perf_counter() - t
                tracer.count("uniform_calls", 1)
                tracer.count("uniforms", 1 if size is None else int(size))
                tracer.count("uniform_s", dt)
                return out

            def substream(self, index):
                return CountingRng(self.seed, index)

        return CountingRng

    # ---- analysis of the recorded spans -------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover.
        Children run inside their parent on one thread, so they do not
        overlap each other."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def summary(self, skip_ops=frozenset()) -> dict:
        """Per span name: calls, total and self seconds, summed counters,
        leaving out the spans of the operations in skip_ops."""
        self_t = self.self_times()
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "counters": {}})
        for s, own in zip(self.spans, self_t):
            if s.op in skip_ops:
                continue
            row = out[s.name]
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += own
            for k, v in (s.counters or {}).items():
                row["counters"][k] = row["counters"].get(k, 0) + v
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.op, s.name, s.start,
                                     s.end, s.counters]) + "\n")


@contextmanager
def patched(patches):
    """Temporarily replace module attributes: patches is a list of
    (module, attribute, replacement)."""
    saved = [(m, a, getattr(m, a)) for m, a, _ in patches]
    for m, a, r in patches:
        setattr(m, a, r)
    try:
        yield
    finally:
        for m, a, old in saved:
            setattr(m, a, old)
