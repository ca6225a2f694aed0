"""In-memory span tracer for the benchmark's traced run.

The tracer replaces a library function by a timing wrapper at the place where
its caller looks it up (for example ``montecarlo.ks_test`` is the name
``run_replication`` resolves at call time), so the library itself is not
edited.  Each call records a span: id, parent span, trace id, layer name,
start and end.  Spans stay in memory and are written out once, at the end.

The tracer keeps a single span stack, so it assumes the serial call path the
benchmark drives; it is not safe to use from several threads at once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[Span] = []
        self._next_trace = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, new_trace: bool) -> Span:
        parent = self._stack[-1] if self._stack else None
        if new_trace or parent is None:
            self._next_trace += 1
            trace = self._next_trace
        else:
            trace = parent.trace
        span = Span(len(self.spans), parent.id if parent else None, trace, name, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, new_trace: bool = False, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        span = self._open(name, new_trace)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, *, new_trace: bool = False, count=None):
        """Replace owner.attr by a traced wrapper until `restore` is called.

        `count(counts, *args, **kwargs)`, when given, adds the call's work
        counts to `self.counts` before the call runs.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                count(self.counts, *args, **kwargs)
            return self.call(name, original, *args, new_trace=new_trace, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def count_instances(self, owner, attr: str, key: str):
        """Count constructions of the class owner.attr under counts[key]."""
        original = getattr(owner, attr)
        counts = self.counts

        class Counted(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                counts[key] += 1

        Counted.__name__ = original.__name__
        setattr(owner, attr, Counted)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)))
                fh.write("\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time its direct children cover.

    Children of one span run one after another on the serial path, so the
    covered time is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - covered[span.id] for span in spans]


def totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Total time, self time and call count of each span name."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, self_time in zip(spans, self_times(spans)):
        total[span.name] += span.duration
        own[span.name] += self_time
        calls[span.name] += 1
    return total, own, calls
