"""In-memory call spans around the public functions of hammingperc.

The tracer wraps functions and methods by replacing the names through
which callers reach them: every module of the package that bound a
function (``from hammingperc.rng import stream_rng``) gets the traced
version, and methods are replaced on their class.  Nothing in the package
itself changes, and :meth:`Tracer.restore` puts every original back.

A span is one call: its name, start, end, parent span and unit id, plus an
optional tag (the graph it ran on) and an optional count taken from the
return value.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time

# span record fields
NAME, START, END, PARENT, UNIT, TAG, CHILD_TIME, COUNT = range(8)


class Tracer:
    """Collects spans for the functions it wraps.

    ``unit_names`` lists the span names that start a new unit of work; the
    spans nested inside a unit carry its id, and spans outside every unit
    carry -1.
    """

    def __init__(self, unit_names=()):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._unit_names = frozenset(unit_names)
        self._units = 0
        self._undo: list[tuple] = []

    def wrap_function(self, module, attr, name, tag=None, count=None):
        """Trace ``module.attr`` in every package module that bound it."""
        original = getattr(module, attr)
        traced = self._traced(original, name, tag, count)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)

    def wrap_method(self, cls, attr, name, tag=None, count=None):
        """Trace ``cls.attr`` for the class and every subclass using it."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._traced(original, name, tag, count))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _traced(self, fn, name, tag, count):
        spans = self.spans
        stack = self._open
        clock = time.perf_counter
        starts_unit = name in self._unit_names
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer = spans[parent] if parent >= 0 else None
            if starts_unit:
                unit = tracer._units
                tracer._units += 1
            else:
                unit = outer[UNIT] if outer else -1
            label = tag(*args, **kwargs) if tag else (outer[TAG] if outer else None)
            span = [name, 0.0, 0.0, parent, unit, label, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if outer:
                    outer[CHILD_TIME] += span[END] - span[START]
            if count:
                span[COUNT] = count(result)
            return result

        return functools.update_wrapper(traced, fn)


def aggregate(spans, key=lambda span: span[NAME]) -> dict:
    """Per key: calls, total seconds, self seconds and summed counts."""
    out: dict = {}
    for span in spans:
        entry = out.setdefault(key(span), {"calls": 0, "total": 0.0,
                                           "self": 0.0, "count": None})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - span[CHILD_TIME]
        if span[COUNT] is not None:
            entry["count"] = _add(entry["count"], span[COUNT])
    return out


def _add(total, value):
    if total is None:
        return value
    if isinstance(value, tuple):
        return tuple(a + b for a, b in zip(total, value))
    return total + value


def covered_time(spans, names) -> float:
    """Seconds spent inside spans whose name is in ``names``, nested ones
    counted once."""
    return sum(
        span[END] - span[START]
        for span in spans
        if span[NAME] in names
        and (span[PARENT] < 0 or spans[span[PARENT]][NAME] not in names)
    )


def nested_time(spans, parent_name, names) -> float:
    """Seconds in spans named in ``names`` called directly from a span named
    ``parent_name``."""
    return sum(
        span[END] - span[START]
        for span in spans
        if span[NAME] in names and span[PARENT] >= 0
        and spans[span[PARENT]][NAME] == parent_name
    )
