"""Span tracing by wrapping module attributes from outside the program.

A Tracer replaces functions (and methods) with thin wrappers that record
one span per call: name, start, end, parent span, and the exception type
if the call raised. Spans stay in memory as a flat list; parents always
precede their children, so self times come out of a single pass.
`install` swaps the wrappers in and returns an undo list; `restore`
puts every original object back, so code outside a traced region runs
unwrapped.
"""

import time

NAME, START, END, PARENT, ERROR = range(5)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, error type or None]
        self.counters = {}   # name -> number, filled by observers
        self._stack = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, observe=None):
        """A callable that runs fn inside a span; observe(args, kwargs, result) runs after it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[ERROR] = type(err).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self, sites):
        """Replace each (owner, attr, name, observe) site; returns what restore() needs."""
        undo = []
        try:
            for owner, attr, name, observe in sites:
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(original, name, observe))
                undo.append((owner, attr, original))
        except BaseException:
            restore(undo)
            raise
        return undo


def restore(undo):
    """Put back every attribute install() replaced, latest first."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans, keep=None):
    """Per-span self time: its duration minus the time of its nearest kept descendants.

    With keep=None every span counts. Otherwise the tree is first
    projected onto the spans for which keep(name) holds: each kept span's
    parent becomes its nearest kept ancestor, and spans not kept get None.
    """
    n = len(spans)
    kept = [keep is None or keep(s[NAME]) for s in spans]
    above = [-1] * n           # nearest kept strict ancestor
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            above[i] = p if kept[p] else above[p]
        if kept[i] and above[i] >= 0:
            child_time[above[i]] += s[END] - s[START]
    return [s[END] - s[START] - child_time[i] if kept[i] else None
            for i, s in enumerate(spans)]


def summarize(spans, keep=None):
    """name -> {"calls", "total_s", "self_s", "errors"} over the (projected) span tree."""
    selfs = self_times(spans, keep)
    out = {}
    for s, self_s in zip(spans, selfs):
        if self_s is None:
            continue
        row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += self_s
        row["errors"] += s[ERROR] is not None
    return out
