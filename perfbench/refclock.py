"""Reference clock: wall times corrected for the host's changing speed.

On a shared host the speed of one process drifts by a quarter or more
within seconds, and every timing drifts with it. The benchmark therefore
runs a small fixed reference kernel (CRC, copy, gather, dictionary work:
the operations the program itself spends its time in) every
``PERIOD_S`` while it measures, never inside a timed call. A timing taken
at instant ``t`` is reported at the host speed on which the kernel takes
``NOMINAL_S``: it is multiplied by ``NOMINAL_S / k(t)``, where ``k(t)`` is
the median kernel time within ``WINDOW_S`` of ``t``. The kernel is part of
the benchmark, not of the program, so a change to the program moves the
corrected times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import zlib
from time import perf_counter
from typing import List

import numpy as np

NOMINAL_S = 0.002
PERIOD_S = 0.05
WINDOW_S = 0.25


class ReferenceClock:
    """Samples the reference kernel and turns wall times into
    reference-speed times."""

    def __init__(self):
        self._data = np.random.default_rng(0).integers(0, 256, 1 << 18, dtype=np.uint8)
        self._index = np.arange(0, len(self._data), 7)
        self.at: List[float] = []
        self.took: List[float] = []
        #: wall seconds spent in the kernel, for timers that span probes
        self.spent = 0.0
        self._last = float("-inf")

    def probe(self) -> None:
        start = perf_counter()
        for _ in range(3):
            zlib.crc32(self._data)
            self._data.copy()
            np.take(self._data, self._index)
            sum({i: str(i) for i in range(2000)})
        took = perf_counter() - start
        self.at.append(start)
        self.took.append(took)
        self.spent += took
        self._last = start

    def maybe_probe(self) -> None:
        """Probe when the last sample is ``PERIOD_S`` old."""
        if perf_counter() - self._last >= PERIOD_S:
            self.probe()

    def kernel_s(self, start: float, end: float = None) -> float:
        """Median kernel time around the interval [start, end]."""
        end = start if end is None else end
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        # widen to the nearest samples when none fall in the window
        return statistics.median(self.took[max(0, lo - 1) : hi + 1])

    def scale(self, seconds: float, start: float, end: float = None) -> float:
        """``seconds`` measured over [start, end] at the nominal speed."""
        return seconds * NOMINAL_S / self.kernel_s(start, end)

    def median_s(self) -> float:
        return statistics.median(self.took)
