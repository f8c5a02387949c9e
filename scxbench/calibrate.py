"""A fixed reference loop that tracks how fast the host runs from moment to moment.

On a shared virtual machine the same Python code runs up to 40 % slower for
stretches of seconds to minutes, depending on what the neighbours do.  The
benchmark therefore samples this loop between items and reports each item's
wall time rescaled to a host on which one sample takes REFERENCE_S:

    reported = measured * REFERENCE_S / (median sample near the item)

The loop does dict updates and a sort, as scx does, so that it slows down
with it.  It allocates almost nothing the garbage collector tracks and runs
with the collector off, so it neither moves the program's collections nor
depends on the size of the program's heap.  It shares no code with scx or
with the output checks, so a change to either leaves it alone.
"""

import bisect
import gc
import statistics
import time

REFERENCE_S = 0.01
INTERVAL_S = 0.25  # a sample is due before an item once this much time has passed
WINDOW_S = 1.0  # samples this close to an item's ends set its scale
_STEPS = 20000


def _reference_work():
    """Hashing, dict updates and a sort over ints: no object the collector tracks."""
    counts = {}
    x = 1
    for _ in range(_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x % 5003
        counts[k] = counts.get(k, 0) + 1
    return sorted(counts.values())


def sample():
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Reference samples taken between items, and the scale they imply."""

    def __init__(self):
        self.times = []  # perf_counter at the end of each sample
        self.samples = []

    def tick(self, force=False):
        """Take a sample if none was taken in the last INTERVAL_S."""
        if force or not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.samples.append(sample())
            self.times.append(time.perf_counter())

    def scale(self, start, end):
        """Factor that rescales a wall time measured over [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.samples[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            near = self.samples[i:i + 1]
        return REFERENCE_S / statistics.median(near)
