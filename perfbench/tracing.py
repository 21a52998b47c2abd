"""In-memory spans around the program's public functions.

The traced run rebinds functions of the `rsvlm` modules (module attributes
and class methods) to wrappers that record one span per call: name, start,
end, parent span, and the current step or request id. Nothing under `src/`
is edited; a binding that no longer exists is reported as absent instead of
failing the run. Counters (graph nodes, attention rows, tokens) run after
the call under a `trace.count` child span, so inclusive and self times can
leave them out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import NamedTuple

COUNT_SPAN = "trace.count"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the root
    rid: object
    counts: dict


class Tracer:
    """Records spans. With `points`, `measuring()` wraps those bindings;
    without, only the benchmark's own spans are kept."""

    def __init__(self, points=None, clock=time.perf_counter):
        self.points = points
        self.clock = clock
        # Finished spans as plain tuples of numbers and strings, counts as
        # (key, value) pairs: the cyclic collector stops tracking such
        # tuples, so a run's hundreds of thousands of spans do not lengthen
        # its pauses.
        self._rows: list[tuple] = []
        self.rid = None
        self.absent: set[str] = set()
        self._open: list[int] = []

    @property
    def spans(self) -> list[Span]:
        return [Span(*row[:5], dict(row[5])) for row in self._rows]

    def measuring(self):
        return self.installed(self.points) if self.points else nullcontext()

    @contextmanager
    def span(self, name: str):
        """A span of the current step or request id, `self.rid`."""
        parent = self._open[-1] if self._open else -1
        idx = len(self._rows)
        s = Span(name, self.clock(), 0.0, parent, self.rid, {})
        self._rows.append(None)  # a parent is listed before its children
        self._open.append(idx)
        try:
            yield s
        finally:
            self._open.pop()
            self._rows[idx] = (s.name, s.start, self.clock(), s.parent, s.rid, tuple(s.counts.items()))

    def wrap(self, fn, name: str, counter=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if counter is not None:
                    with self.span(COUNT_SPAN):
                        s.counts.update(counter(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, points):
        """points: (owner, attribute, span name, counter or None). Owners are
        modules or classes; their attributes are restored on exit."""
        saved = []
        try:
            for owner, attr, name, counter in points:
                fn = owner.__dict__.get(attr)
                if not callable(fn):
                    self.absent.add(name)
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def dump(self, path, extra: dict) -> None:
        spans = self.spans
        t0 = spans[0].start if spans else 0.0
        rows = [[s.name, round(s.start - t0, 7), round(s.end - t0, 7), s.parent, s.rid, s.counts]
                for s in spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "span_fields": ["name", "start_s", "end_s", "parent", "id", "counts"],
                       "spans": rows}, fh, separators=(",", ":"))


def graph_nodes(root) -> int:
    """Autodiff nodes reachable from `root` through their parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class SpanIndex:
    """Queries over a finished span list: ancestry, inclusive and self time."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        self.ancestors: list[frozenset] = []  # names of each span's ancestors
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):  # a parent opens, so is listed, before its children
            if s.parent >= 0:
                self.children[s.parent].append(i)
                self.ancestors.append(self.ancestors[s.parent] | {spans[s.parent].name})
            else:
                self.ancestors.append(frozenset())
            self.by_name.setdefault(s.name, []).append(i)

    def select(self, names, within=(), outside=None, parent=None) -> list[int]:
        """Spans named in `names` that have ancestors named in `within`, none
        named `outside`, and, if given, a direct parent named `parent`."""
        names = [names] if isinstance(names, str) else names
        return sorted(
            i for name in names for i in self.by_name.get(name, ())
            if self.ancestors[i].issuperset(within)
            and (outside is None or outside not in self.ancestors[i])
            and (parent is None or (self.spans[i].parent >= 0
                                    and self.spans[self.spans[i].parent].name == parent))
        )

    def _counting(self, i: int) -> float:
        total = 0.0
        for c in self.children[i]:
            if self.spans[c].name == COUNT_SPAN:
                total += self.spans[c].end - self.spans[c].start
            else:
                total += self._counting(c)
        return total

    def inclusive(self, i: int) -> float:
        """Duration less the time its descendants spent counting."""
        s = self.spans[i]
        return s.end - s.start - self._counting(i)

    def self_time(self, i: int) -> float:
        """Duration less the part of it that child spans cover."""
        s = self.spans[i]
        return s.end - s.start - covered((self.spans[c].start, self.spans[c].end)
                                         for c in self.children[i])

    def total_ms(self, idx, self_only=False) -> float:
        f = self.self_time if self_only else self.inclusive
        return 1e3 * sum(f(i) for i in idx)

    def total_count(self, idx, key: str) -> float:
        return float(sum(self.spans[i].counts.get(key, 0) for i in idx))
