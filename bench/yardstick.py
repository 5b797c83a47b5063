"""A fixed pure-Python loop that measures how fast the machine runs right now.

On a shared machine the speed of one CPU drifts by tens of percent, even
twofold, over seconds, which no amount of repetition within a run averages
away.  Each timed call is therefore divided by the time of this loop run
just before and just after it, and the quotient is turned back into
seconds with REFERENCE_S: the loop's typical time on the machine the
baseline was measured on.  The loop does the same kind of work as the word
model (Python integer operations and list stores) over a working set of
about 10 MB, so drift in CPU speed and in cache and memory contention slows
both alike; a loop that fits in cache tracked the memory-heavy census
workload three times worse.
"""

from __future__ import annotations

from time import perf_counter

import reference

STEPS = 1 << 18
WORD = 0x9E3779B97F4A7C15
REFERENCE_S = 0.09  # 2 CPUs, Intel Xeon, Python 3.11.7


class Yardstick:
    """The loop and its working set.

    The words stay allocated between passes, so the worker's peak RSS
    carries them as a constant 10 MB or so instead of as a peak that would
    hide any program whose own peak is smaller.
    """

    def __init__(self):
        self._words = [0] * STEPS
        self.measure()  # allocate every word once, untimed

    def measure(self) -> float:
        """Seconds one pass of the loop takes now."""
        words, step = self._words, reference.step
        start = perf_counter()
        w = WORD
        for i in range(STEPS):
            w = step(w, 64)
            words[i] = w
        return perf_counter() - start
