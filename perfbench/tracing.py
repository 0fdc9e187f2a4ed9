"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into asmsim's public functions by replacing
the attribute the caller looks them up through (for example
`asmsim.train.make_pairs`, which `train()` calls), so nothing under `src/`
changes. Each span holds its name, start, end, the index of the span it was
opened under, and the operation it belongs to. Spans stay in memory until
the process writes them out at the end.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None                  # operation id shared by the spans of one call
        self.spans: list[list] = []     # [name, start, end, parent index, op]
        self.overhead_s = 0.0           # time spent on tracing itself
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float):
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    def wrap(self, owner, attr: str, name, before=None, after=None):
        """Replace `owner.attr` with a wrapper that records a span per call.

        `name` is a span name, or a function of (args, kwargs) that returns
        one, or None to pass the call through unrecorded. `before(args,
        kwargs)` and `after(args, kwargs, result)` update counts; their cost
        is charged to the tracing overhead.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t_in = _clock()
            span_name = name(args, kwargs) if callable(name) else name
            if span_name is None:
                self.overhead_s += _clock() - t_in
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = self._open(span_name)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self._close(idx, start, end)
            if after is not None:
                after(args, kwargs, result)
            self.overhead_s += (start - t_in) + (_clock() - end)
            return result

        setattr(owner, attr, wrapper)
        return wrapper


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
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


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = union_length(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i])
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, selfs):
        row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[2] - s[1]
        row["self_s"] += self_s
    return out
