"""In-memory spans around the benchmark's calls, self times, Chrome trace export.

A :class:`Tracer` keeps ``(name, start, end, parent, request id)`` spans in a
list and writes them out once, at the end of a traced run, as Chrome
trace-event JSON (opens in Perfetto or ``chrome://tracing``).  A disabled
tracer records nothing, so the untraced runs pay one attribute test per
span.  :func:`instrument` wraps public functions of the program for the
length of a ``with`` block, so calls the program makes internally (the
k-means inside the pattern search, the store writes inside a sweep) show
as child spans without editing the program.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    """One timed interval; ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None = None
    request_id: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap (spans from several threads), so the covered part
    is the union of the child intervals clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


class Tracer:
    """Span recorder; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool, clock: Callable[[], float] = time.monotonic):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._open = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request_id: str | None = None) -> Iterator[None]:
        """Time the block as a child of the innermost open span of this thread."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), float("nan"), parent, request_id))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            opened = self.spans[index]
            self.spans[index] = Span(
                name, opened.start, self.clock(), parent, request_id
            )

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        request_id: str | None = None,
    ) -> None:
        """Record an interval measured elsewhere (e.g. a request's lifetime)."""
        if self.enabled:
            stack = self._stack()
            self.spans.append(
                Span(name, start, end, stack[-1] if stack else None, request_id)
            )

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [span.duration for span in self.spans if span.name == name]

    def self_durations(self, name: str) -> list[float]:
        """Self times in seconds of every span called ``name``."""
        own = self_times(self.spans)
        return [own[i] for i, span in enumerate(self.spans) if span.name == name]

    def totals_within(self, name: str, ancestor: str) -> list[float]:
        """Per ``ancestor`` span, the summed durations of ``name`` spans under it."""
        totals = {i: 0.0 for i, span in enumerate(self.spans) if span.name == ancestor}
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].name != ancestor:
                parent = self.spans[parent].parent
            if parent is not None:
                totals[parent] += span.duration
        return list(totals.values())

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        if not self.spans:
            return
        origin = min(span.start for span in self.spans)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": os.getpid(),
                "tid": 0 if span.request_id is None else 1,
                "args": {"id": index, "parent": span.parent, "request_id": span.request_id},
            }
            for index, span in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "metadata": metadata}))


@contextlib.contextmanager
def instrument(
    tracer: Tracer, targets: Iterable[tuple[object, str, str]]
) -> Iterator[None]:
    """Wrap ``owner.attr`` in a span called ``name`` for each target.

    The originals are restored on exit.  Only the module attribute or class
    attribute is replaced, so the program picks the wrapper up exactly where
    it looks the name up at call time.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapped(tracer, name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _wrapped(tracer: Tracer, name: str, function: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)

    wrapper.__wrapped__ = function
    return wrapper
