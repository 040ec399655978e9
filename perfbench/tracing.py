"""Spans around the library's public functions, recorded from outside it.

A :class:`Tracer` replaces a list of public names (module functions and
class methods of ``robusthcn``) with wrappers that record a span per call:
name, parent span, start, end, whether it raised, and a turn count where
the call has one.  Every module that imported a name directly gets the
wrapper too, so ``from .models import predict_dialog`` call sites are
covered.  :meth:`Tracer.uninstall` puts the originals back.

Grid-search workers are forked from a traced process, so they inherit the
wrappers.  A worker writes its spans to ``spill_dir`` whenever it returns
to a span of its parent process; :meth:`Tracer.merge_spills` adds them to
the parent's list with their parents intact.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time
from functools import wraps


STEP = "train.step"


class Span:
    __slots__ = ("name", "parent", "start", "end", "failed", "turns", "info")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.failed = False
        self.turns = 0
        self.info = None

    def to_list(self):
        return [self.name, self.parent, self.start, self.end, self.failed, self.turns, self.info]

    @classmethod
    def from_list(cls, row):
        span = cls(row[0], row[1], row[2])
        span.end, span.failed, span.turns, span.info = row[3], row[4], row[5], row[6]
        return span


class Target:
    """One public name to wrap: ``owner.attr`` recorded as span ``name``.

    ``measure(tracer, span, args, kwargs, result)`` runs after the span
    closes and may set ``span.turns`` / ``span.info``.  ``kind`` is
    ``"call"`` for an ordinary span, ``"open_step"`` for a call that starts
    a training step, ``"close_step"`` for a call that ends one.
    """

    def __init__(self, name, owner, attr, measure=None, kind="call"):
        self.name = name
        self.owner = owner
        self.attr = attr
        self.measure = measure
        self.kind = kind


class Tracer:
    def __init__(self, targets, spill_dir=None):
        self.targets = list(targets)
        self.spill_dir = spill_dir
        self.spans = []
        self.stack = []
        self.counters = {}
        self._pid = os.getpid()
        self._base = None
        self._patches = []

    # -- installation -------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "robusthcn" or n.startswith("robusthcn."))]
        for target in self.targets:
            original = target.owner.__dict__[target.attr]
            wrapper = self._wrap(target, original)
            sites = [target.owner]
            if not isinstance(target.owner, type):
                sites += [m for m in modules
                          if m is not target.owner and m.__dict__.get(target.attr) is original]
            for site in sites:
                setattr(site, target.attr, wrapper)
                self._patches.append((site, target.attr, original))
        return self

    def uninstall(self):
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reset(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- recording ----------------------------------------------------

    def open(self, name):
        if os.getpid() != self._pid:
            # first call in a forked worker: spans from here on are the worker's
            self._pid = os.getpid()
            self._base = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx, failed=False):
        now = time.perf_counter()
        # spans left open above idx (a step abandoned by an exception) end here
        while self.stack and self.stack[-1] >= idx:
            top = self.stack.pop()
            span = self.spans[top]
            span.end = now
            span.failed = span.failed or failed or top != idx

    def settle(self):
        """In a forked worker back at its parent's span, hand its spans over."""
        if self._base is None or (self.stack and self.stack[-1] >= self._base):
            return
        own = self.spans[self._base:]
        if own and self.spill_dir is not None:
            path = os.path.join(self.spill_dir, "spans-%d.jsonl" % os.getpid())
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"base": self._base,
                                     "spans": [s.to_list() for s in own]}) + "\n")
        del self.spans[self._base:]

    def merge_spills(self):
        """Append spans written by forked workers; returns how many."""
        if self.spill_dir is None:
            return 0
        added = 0
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "spans-*.jsonl"))):
            with open(path, "r", encoding="utf-8") as fh:
                batches = [json.loads(line) for line in fh if line.strip()]
            os.remove(path)
            for batch in batches:
                base = batch["base"]
                offset = len(self.spans) - base
                for row in batch["spans"]:
                    span = Span.from_list(row)
                    if span.parent is not None and span.parent >= base:
                        span.parent += offset
                    self.spans.append(span)
                    added += 1
        return added

    def _wrap(self, target, fn):
        tracer = self
        name = target.name
        measure = target.measure

        if target.kind == "open_step":
            @wraps(fn)
            def opener(*args, **kwargs):
                tracer.open(name)
                return fn(*args, **kwargs)
            return opener

        closes_step = target.kind == "close_step"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                tracer.settle()
                raise
            tracer.close(idx)
            if measure is not None:
                measure(tracer, tracer.spans[idx], args, kwargs, result)
            if closes_step and tracer.stack and tracer.spans[tracer.stack[-1]].name == STEP:
                tracer.close(tracer.stack[-1])
            tracer.settle()
            return result

        return wrapper


# -- span arithmetic ---------------------------------------------------


def self_times(spans):
    """Span duration minus the part of its interval that child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children[i], key=lambda j: spans[j].start):
            a = max(spans[c].start, span.start)
            b = min(spans[c].end, span.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(max(0.0, (span.end - span.start) - covered))
    return out


def ancestors(spans, i):
    """The spans enclosing span ``i``, innermost first."""
    parent = spans[i].parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def outermost(spans, names):
    """Spans named in ``names`` that have no ancestor also named in ``names``."""
    return [s for i, s in enumerate(spans)
            if s.name in names and not any(a.name in names for a in ancestors(spans, i))]


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for i, span in enumerate(spans):
            fh.write(json.dumps([i] + span.to_list()) + "\n")
