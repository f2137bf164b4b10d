"""A fixed pure-Python loop that measures how fast the host runs Python right now.

The benchmark's host is shared: the same simulation can take twice as long
from one second to the next when neighbours load the machine.  Each child
times this loop just before and just after its simulation, and the
host-normalised metrics scale the simulation's times by the loop's; the
ratio stays steady while both swing together.  The loop imitates the
simulator's own work (dict lookups, slotted attribute updates and an LRU
victim scan of a set-associative table) but shares no code with it, so a
change to the simulator never changes the loop.

Never change :data:`ITERATIONS`, :data:`REFERENCE_CALIBRATION_S` or the
loop body: a normalised metric is only comparable with values measured
against the same loop.
"""

from __future__ import annotations

import gc
import time
from typing import Tuple

#: Sized so one pass takes roughly 0.1 s on a two-vCPU x86-64 container.
ITERATIONS = 60_000
#: Seconds of one pass on the reference host.  Normalised metrics are what
#: the host would have measured if a pass had taken exactly this long, in
#: wall time for wall-clock metrics and in CPU time for ``cpu_kips``.
REFERENCE_CALIBRATION_S = 0.1
_SETS = 64
_WAYS = 8


class _Line:
    __slots__ = ("tag", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.stamp = stamp


def _kernel(iterations: int) -> int:
    """Simulate a small LRU cache over a fixed address sequence; returns its hits."""
    sets = [{} for _ in range(_SETS)]
    clock = 0
    hits = 0
    state = 1
    for _ in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        block = (state >> 16) & 1023
        lines = sets[block % _SETS]
        tag = block // _SETS
        clock += 1
        line = lines.get(tag)
        if line is not None:
            line.stamp = clock
            hits += 1
            continue
        if len(lines) >= _WAYS:
            victim = min(lines, key=lambda key: lines[key].stamp)
            del lines[victim]
        lines[tag] = _Line(tag, clock)
    return hits


def calibrate() -> Tuple[float, float]:
    """Wall and process-CPU seconds of one pass of the calibration loop.

    The garbage collector is paused for the pass, so the size of the heap
    the simulation left behind cannot change the loop's cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        _kernel(ITERATIONS)
        return time.perf_counter() - start_wall, time.process_time() - start_cpu
    finally:
        if was_enabled:
            gc.enable()
