"""Host speed reference for the benchmark's timings.

On the 2-core Xeon VM this benchmark was tuned on, the same Python code
runs up to twice as fast in some minutes as in others, and no run length
averages that away.  So while ops run, a timer signal times a fixed
reference loop every `PERIOD_S`, and each op's time is reported at the
speed at which that loop takes `REFERENCE_S`:

    reported = (measured - time spent in the loop)
               * REFERENCE_S / median(loop times during the op)

A short op that saw fewer than `WINDOW` samples uses the `WINDOW` most
recent ones.  The measured times are printed on the metadata line too.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

REFERENCE_S = 1.15e-3  # the loop's time in a quiet minute on that VM, Python 3.11
PERIOD_S = 0.1
WINDOW = 9


def reference_loop() -> int:
    """Tuple keys, dict reads and writes and int bit-twiddling, like the
    engine's table code; it tracked the engine's speed better than pure
    arithmetic did."""
    table = {}
    for i in range(4000):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) | (1 << (i & 15))
    return len(table)


class Speed:
    """Samples the reference loop from SIGALRM while entered."""

    def __init__(self):
        self._ends: list[float] = []
        self._took: list[float] = []
        self.paused = 0.0  # seconds spent in the loop so far
        self._previous = None  # the SIGALRM handler to restore

    def _sample(self, *_):
        start = perf_counter()
        reference_loop()
        end = perf_counter()
        self._ends.append(end)
        self._took.append(end - start)
        self.paused += end - start

    def __enter__(self):
        for _ in range(WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        """Now, and the loop time so far: two marks bound a timed span."""
        while True:  # a sample between the two reads would skew them
            paused = self.paused
            now = perf_counter()
            if paused == self.paused:
                return now, paused

    def seconds(self, begin, end) -> tuple[float, float]:
        """(measured seconds without the loop, factor to the reference
        speed) for the span between two marks."""
        hi = bisect_right(self._ends, end[0])
        lo = min(bisect_left(self._ends, begin[0]), max(hi - WINDOW, 0))
        factor = REFERENCE_S / median(self._took[lo:hi])
        return end[0] - begin[0] - (end[1] - begin[1]), factor
