"""Machine-speed calibration interleaved with the timed work.

The benchmark runs on shared machines whose speed drifts: for seconds to
minutes at a time, other tenants slow every instruction stream by up to about
a factor of two, which moves raw timings of identical work by tens of percent
between runs. To report times that compare across runs, a fixed piece of
exact arithmetic that uses no zipstrata code, the calibration unit, is timed
between operations. Each operation's raw latency is scaled by
``REFERENCE_S`` over the calibration time measured around it, so reported
times are seconds at the reference speed: the speed at which one unit takes
``REFERENCE_S``. A change to zipstrata moves the operations, never the unit.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter
from typing import List

# One calibration unit on an uncontended core of the machine the benchmark
# was written on (2 vCPU x86-64 VM, CPython 3.11).
REFERENCE_S = 0.00034
UNIT_REPS = 50
# Units per calibration point; the median absorbs a unit hit by an interrupt.
POINT_UNITS = 3
# A new point is taken before an operation once the last is this old.
INTERVAL_S = 0.025


def unit() -> float:
    """Seconds taken by one calibration unit: Fraction arithmetic, tuples
    and dictionary hashing, the same mix as the library's inner loops."""
    x, y = Fraction(1, 3), Fraction(2, 7)
    seen = {}
    start = perf_counter()
    for i in range(UNIT_REPS):
        seen[(x + y, x * y, x - y)] = i
    return perf_counter() - start


class SpeedMeter:
    """Calibration points taken between operations of one window."""

    def __init__(self) -> None:
        self.points: List[float] = []
        self._taken_at = float("-inf")

    def _take(self) -> None:
        self.points.append(statistics.median(unit() for _ in range(POINT_UNITS)))
        self._taken_at = perf_counter()

    def mark(self) -> int:
        """Call before an operation: take a point if the last one is stale,
        and return the index of the point that precedes the operation."""
        if perf_counter() - self._taken_at >= INTERVAL_S:
            self._take()
        return len(self.points) - 1

    def finish(self) -> None:
        """Call after the last operation, so every mark has a following point."""
        self._take()

    def scale(self, mark: int) -> float:
        """Factor from raw seconds to seconds at the reference speed for an
        operation between points ``mark`` and ``mark + 1``."""
        return REFERENCE_S * 2 / (self.points[mark] + self.points[mark + 1])
