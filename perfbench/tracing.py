"""In-memory span recorder for the traced benchmark runs.

A span is one timed call from the benchmark into a layer's public
function: its name (``<layer>.<call>``), start and end (seconds on
``time.perf_counter``), the id of the span that caused it, and the run
id shared by every span of one traced run.  Spans are kept in memory
and written out once, when the run ends.

A layer's *self time* is the duration of its spans minus the part of
each span's interval that its child spans cover.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; safe to use from several client threads at once.

    Each thread keeps its own stack of open spans, so a span opened on a
    client thread parents the spans that thread opens inside it.  A
    thread with no open span parents its spans to ``root`` when given
    (see :meth:`thread_root`).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else getattr(self._local, "root", None)
        stack.append(span_id)
        span = Span(span_id, name, perf_counter(), float("nan"), parent, self.run_id)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def thread_root(self, span_id: int | None) -> None:
        """Parent the calling thread's top-level spans to ``span_id``."""
        self._local.root = span_id

    # -- queries -----------------------------------------------------------

    def subtree(self, root_id: int) -> list[Span]:
        """Every span under ``root_id`` (the root included)."""
        children: dict[int | None, list[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent, []).append(span)
        by_id = {span.id: span for span in self.spans}
        out, todo = [], [root_id]
        while todo:
            span_id = todo.pop()
            if span_id in by_id:
                out.append(by_id[span_id])
            todo.extend(child.id for child in children.get(span_id, ()))
        return out

    def total(self, name: str, spans: list[Span] | None = None) -> float:
        """Summed duration of the spans called ``name``."""
        pool = self.spans if spans is None else spans
        return sum(s.duration for s in pool if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self, spans: list[Span]) -> dict[str, float]:
        """Self time per layer over ``spans`` (a closed subtree)."""
        children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        layers: dict[str, float] = {}
        for span in spans:
            covered = _covered(
                [(c.start, c.end) for c in children.get(span.id, ())],
                span.start,
                span.end,
            )
            layers[span.layer] = (
                layers.get(span.layer, 0.0) + span.duration - covered
            )
        return layers

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


class NullTracer:
    """The :class:`Tracer` interface without recording: spans still time
    themselves (callers read ``duration``), nothing is kept."""

    @contextmanager
    def span(self, name: str):
        span = Span(-1, name, perf_counter(), float("nan"), None, "")
        try:
            yield span
        finally:
            span.end = perf_counter()

    def thread_root(self, span_id: int | None) -> None:
        pass


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
