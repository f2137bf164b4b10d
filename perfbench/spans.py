"""Span tracing from outside the simulator: wrap each layer's public functions.

Nothing in ``src/`` knows about tracing.  :class:`SpanRecorder` replaces a
bound method on one live object with a wrapper that records a span — name,
start, end and the span that was open when it was called — around the
original call.  Spans stay in memory as parallel arrays and are reduced to
per-name totals once the run ends (:meth:`SpanRecorder.summary`).  A span's
self time is its duration minus the durations of its direct child spans.

A call site that captured a bound method before the wrapper was installed
bypasses it; ``layers.instrument_system`` says which objects are wrapped and
re-installs the one such binding the simulator has.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter


class SpanRecorder:
    """In-memory span store with one open-span stack (the run is single-threaded)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller, under the currently open span."""
        self.name_ids.append(self._intern(name))
        self.parents.append(self._stack[-1])
        self.starts.append(start)
        self.ends.append(end)

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)
        name_id = self._intern(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(_clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = _clock()
                stack.pop()

        setattr(owner, attribute, traced)

    def wrap_generator(self, owner: object, attribute: str, name: str,
                       on_item: Callable[[object], None]) -> None:
        """Record one span per ``next()`` of the generator ``owner.attribute`` returns.

        ``on_item`` sees every yielded item (outside the span).
        """
        original = getattr(owner, attribute)

        def traced(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                start = _clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    self.add(name, start, _clock())
                    return
                self.add(name, start, _clock())
                on_item(item)
                yield item

        setattr(owner, attribute, traced)

    def summary(self) -> Tuple[Dict[str, Dict[str, float]], Dict[Tuple[str, str], int],
                               Dict[str, List[float]]]:
        """Reduce the spans to per-name totals.

        Returns ``(per_name, parent_pairs, durations)``: per span name its
        ``count``, inclusive seconds ``incl_s`` and ``self_s``; the number of
        spans per ``(parent name, child name)`` pair (a root span's parent
        name is ``""``); and every duration of each name.
        """
        count = len(self.starts)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        children_s = [0.0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                children_s[parent] += ends[index] - starts[index]
        per_name = {name: {"count": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        durations: Dict[str, List[float]] = {name: [] for name in self.names}
        pairs: Dict[Tuple[str, str], int] = {}
        names = self.names
        for index in range(count):
            name = names[name_ids[index]]
            duration = ends[index] - starts[index]
            row = per_name[name]
            row["count"] += 1
            row["incl_s"] += duration
            row["self_s"] += duration - children_s[index]
            durations[name].append(duration)
            parent = parents[index]
            key = (names[name_ids[parent]] if parent >= 0 else "", name)
            pairs[key] = pairs.get(key, 0) + 1
        return per_name, pairs, durations


def plant_delay(owner: object, attribute: str, seconds: float) -> None:
    """Busy-wait ``seconds`` before every call of ``owner.attribute``.

    The self-test uses this to check that a known cost lands in exactly one
    layer's self time.  Install it before the span wrappers so the
    delay falls inside that function's span.
    """
    original = getattr(owner, attribute)

    def delayed(*args, **kwargs):
        until = _clock() + seconds
        while _clock() < until:
            pass
        return original(*args, **kwargs)

    setattr(owner, attribute, delayed)
