"""Call tracing from outside the program.

The tracer replaces a public function at the place its caller looks it up
(a module attribute or a class attribute) with a wrapper that records one
span per call: name, start, end, parent span and the logical request being
served. Spans stay in memory until the run ends. Counts are derived from
the wrapped calls' return values, never from inside the program.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

NO_REQUEST = -1
NO_PARENT = -1

Span = tuple[str, int, float, float, int]  # name, parent index, start, end, request id


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack = [NO_PARENT]
        self._request = NO_REQUEST
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, before=None, after=None, request_of=None) -> None:
        """Trace calls made through ``owner.attr`` as spans called ``name``.

        ``before(args)`` runs ahead of each call, ``after(args, result)``
        after each call that returns, and ``request_of(args)`` names the
        logical request the call serves, for the call and its children.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            outer_request = self._request
            if request_of is not None:
                self._request = request_of(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end, self._request)
                self._request = outer_request
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, parent, start, end, self._request)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,parent,name,start_s,end_s,request\n")
            for index, (name, parent, start, end, request) in enumerate(self.spans):
                out.write(f"{index},{parent},{name},{start!r},{end!r},{request}\n")


def self_times(spans: list[Span]) -> tuple[Counter, Counter]:
    """Per span name: the number of calls and the summed self time.

    A span's self time is its duration minus the durations of its direct
    children. Calls nest on one thread, so children never overlap and the
    self times of a tree add up to its root's duration.
    """
    covered = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent != NO_PARENT:
            covered[parent] += end - start
    calls: Counter = Counter()
    own: Counter = Counter()
    for index, (name, _, start, end, _) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - covered[index]
    return calls, own
