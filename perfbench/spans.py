"""In-memory spans and counters for the traced run, and self-time arithmetic.

A span is ``[name, start, end, parent]``: perf_counter seconds, with
``parent`` the index of the enclosing span or -1 at the top. Spans are kept
in memory and written out once, when the traced process ends.
"""

import collections
import time

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.open_spans = []  # indices of spans not yet closed, innermost last
        self.counts = collections.Counter()

    def open(self, name):
        parent = self.open_spans[-1] if self.open_spans else -1
        self.spans.append([name, _now(), None, parent])
        self.open_spans.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        """Close a span and any span opened inside it and left open."""
        end = _now()
        while self.open_spans:
            top = self.open_spans.pop()
            self.spans[top][2] = end
            if top == index:
                return

    def innermost(self):
        return self.spans[self.open_spans[-1]][0] if self.open_spans else None

    def span(self, name, fn, after=None):
        """Wrap fn so that each call records a span.

        after(result, args, kwargs, index), if given, runs once the span is
        closed, so the bookkeeping it does stays out of the span.
        """

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, args, kwargs, index)
            return result

        return wrapper

    def to_json(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def duration(span):
    return span[2] - span[1]


def self_times(spans):
    """Self time of each span: its duration minus that of its children.

    Children of one span never overlap in this single-threaded program, so
    the part of the parent's interval they cover is the sum of their
    durations.
    """
    child_total = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_total[span[3]] += duration(span)
    return [duration(span) - child_total[i] for i, span in enumerate(spans)]


def layer_self_times(spans, wall):
    """Self seconds per layer, the layer being a span name's prefix.

    The process is the implicit root: whatever the top-level spans leave of
    the wall time (interpreter start, imports, orchestration) is charged to
    ``cli``.
    """
    layers = collections.Counter()
    for span, own in zip(spans, self_times(spans)):
        layers[span[0].split(".", 1)[0]] += own
    layers["cli"] += wall - sum(duration(s) for s in spans if s[3] < 0)
    return layers
