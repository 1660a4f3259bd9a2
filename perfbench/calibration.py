"""Host-speed calibration for the timed metrics.

The benchmark runs on shared hosts whose speed drifts by tens of
percent over minutes, which swamps the effect of most changes to the
simulator.  Every timed sample is therefore bracketed by :func:`calibrate`,
a fixed pure-Python loop with the simulator's instruction mix (heap
pushes and pops, tuple compares, dict updates, slotted attributes,
method calls, float arithmetic), and scaled by ``REFERENCE_S`` over
the loop's mean time before and after the sample.  The reported
seconds are host seconds at the speed where the loop takes
``REFERENCE_S``.

The loop belongs to the benchmark, not the simulator, so a change to
the simulator moves the scaled times exactly as it moves raw times on a
steady host.  Do not edit it: that would rescale every result.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Dict

#: the calibration loop's time on the host the benchmark was defined on
REFERENCE_S = 0.1


class _Item:
    __slots__ = ("time", "value")

    def __init__(self, time: float, value: int) -> None:
        self.time = time
        self.value = value

    def step(self, state: Dict[int, float]) -> float:
        state[self.value & 127] = state.get(self.value & 127, 0.0) + self.time
        return self.time * 1.5 + 1.0


def _loop(pops: int = 40_000, width: int = 1024) -> float:
    heap: list = []
    state: Dict[int, float] = {}
    push, pop = heapq.heappush, heapq.heappop
    for i in range(width):
        push(heap, ((i * 7919) % 4099 + 0.5, i, _Item(float(i % 97), i)))
    total = 0.0
    for seq in range(width, width + pops):
        t, i, item = pop(heap)
        total += item.step(state)
        push(heap, (t + (i * 31) % 1021 + 1.0, seq, _Item(t % 97.0, i)))
    return total


def calibrate() -> float:
    """Seconds the fixed loop takes now.

    The cyclic garbage collector is off while it runs: a collection
    would walk the whole process heap, tying the loop's time to what the
    benchmark holds in memory rather than to the host's speed.  The loop
    creates no reference cycles, so nothing is left for it to collect.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, from the calibrations around it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
