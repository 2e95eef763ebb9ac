"""Spans and counters around the program's public functions.

Hooks replace a function where its callers look it up (``learner`` imports
``dot`` by name, so the hook goes on ``learner.dot``) and are removed by
:meth:`Tracer.close`.  There are two kinds:

* span: name, start, end and parent of every call, kept in memory until the
  run writes them out.  Used for calls made at most a few thousand times.
* leaf: a call count and, when timed, the summed duration, kept per
  enclosing span.  Used for the hot calls (``denotation`` runs millions of
  times on ``wide``), where one record per call would cost more memory than
  the run has.  A recursive call of the same function is not counted again.

A hook whose target does not exist is skipped and listed in ``missing``;
the metrics that need it are then absent.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.stack: list = []
        self.leaves: dict = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, s]
        self.measured: dict = defaultdict(int)  # leaf name -> sum of measure(result)
        self.missing: list = []
        self._undo: list = []
        self._active: set = set()

    # -- hooks ----------------------------------------------------------------

    def _replace(self, owner, attr, make) -> None:
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def span(self, owner, attr, name) -> None:
        def make(fn):
            spans, stack = self.spans, self.stack

            def wrapper(*args, **kwargs):
                record = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(record)
                record[1] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    stack.pop()

            return wrapper

        self._replace(owner, attr, make)

    def leaf(self, owner, attr, name, timed=True, measure=None) -> None:
        """``measure(result)`` is summed into ``measured[name]``."""

        def make(fn):
            stack, leaves, active = self.stack, self.leaves, self._active

            def wrapper(*args, **kwargs):
                if name in active:
                    return fn(*args, **kwargs)
                record = leaves[(stack[-1] if stack else -1, name)]
                record[0] += 1
                if not timed and measure is None:
                    return fn(*args, **kwargs)
                active.add(name)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if timed:
                        record[1] += perf_counter() - start
                    active.discard(name)
                if measure is not None:
                    self.measured[name] += measure(result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def section(self, name):
        """Root span the benchmark opens around one of its own sections."""
        return self._Section(self, name)

    class _Section:
        def __init__(self, tracer, name):
            self.tracer, self.name = tracer, name

        def __enter__(self):
            t = self.tracer
            self.record = [self.name, 0.0, 0.0, -1]
            t.stack.append(len(t.spans))
            t.spans.append(self.record)
            self.record[1] = perf_counter()

        def __exit__(self, *exc):
            self.record[2] = perf_counter()
            self.tracer.stack.pop()

    def close(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus what its child spans and leaves cover."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        for (parent, _), (_, seconds) in self.leaves.items():
            if parent >= 0:
                out[parent] -= seconds
        return out

    def roots(self) -> list[int]:
        """Index of the root span of every span."""
        out = []
        for index, span in enumerate(self.spans):
            out.append(index if span[3] < 0 else out[span[3]])
        return out

    def span_seconds(self, name) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def span_calls(self, name) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_seconds(self, name) -> float:
        return sum(t for t, span in zip(self.self_times(), self.spans) if span[0] == name)

    def leaf_calls(self, name, parent_name=None) -> int:
        return sum(
            calls
            for (parent, leaf), (calls, _) in self.leaves.items()
            if leaf == name
            and (parent_name is None or (parent >= 0 and self.spans[parent][0] == parent_name))
        )

    def leaf_seconds(self, name) -> float:
        return sum(s for (_, leaf), (_, s) in self.leaves.items() if leaf == name)

    def shares(self) -> dict:
        """{section: {layer: self time / section time}}, largest first.

        A section's own self time, the benchmark code around the calls, is
        listed as ``benchmark``.
        """
        roots = self.roots()
        parts: dict = defaultdict(lambda: defaultdict(float))
        totals: dict = defaultdict(float)
        for index, (span, own) in enumerate(zip(self.spans, self.self_times())):
            section = self.spans[roots[index]][0]
            parts[section]["benchmark" if roots[index] == index else span[0]] += own
            if roots[index] == index:
                totals[section] += span[2] - span[1]
        for (parent, leaf), (_, seconds) in self.leaves.items():
            if parent >= 0 and seconds:
                parts[self.spans[roots[parent]][0]][leaf] += seconds
        return {
            section: {
                layer: seconds / totals[section]
                for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])
            }
            for section, layers in parts.items()
        }

    def inclusive_shares(self) -> dict:
        """{section: {span name: duration / section time}}, callees included."""
        roots = self.roots()
        parts: dict = defaultdict(lambda: defaultdict(float))
        totals: dict = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            section = self.spans[roots[index]][0]
            if roots[index] == index:
                totals[section] += end - start
                continue
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                parts[section][name] += end - start
        for (parent, leaf), (_, seconds) in self.leaves.items():
            if parent >= 0 and seconds:
                parts[self.spans[roots[parent]][0]][leaf] += seconds
        return {
            section: {
                name: seconds / totals[section]
                for name, seconds in sorted(names.items(), key=lambda kv: -kv[1])
            }
            for section, names in parts.items()
        }

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "leaves": [
                        {"parent": parent, "name": name, "calls": calls, "seconds": s}
                        for (parent, name), (calls, s) in self.leaves.items()
                    ],
                    "missing_hooks": self.missing,
                    **extra,
                },
                fh,
            )
