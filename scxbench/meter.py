"""Per-pass bookkeeping: timed items, operation counts and output checks."""

import time
from collections import Counter


class OpFailed(Exception):
    """An operation raised or ended with an unexpected exit code."""


class Meter:
    """Times the items of one pass and records what went wrong.

    An item is one timed unit of user-visible work; it contains one or more
    operations.  An operation that raises counts as failed and the pass goes
    on; a wrong output is an error, which makes the whole run incorrect.
    Checks run outside item timers.
    """

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = clock
        self.items = []  # (label, rung, seconds)
        self.windows = []  # (start, end) of each item on the perf_counter clock
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.errors = []
        self.counts = Counter()

    def item(self, label, rung, fn):
        """Run fn() as one timed item; fn returns after its last operation."""
        if self.clock is not None:
            self.clock.tick()
        if self.tracer is not None:
            self.tracer.item = len(self.items)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.items.append((label, rung, t1 - t0))
            self.windows.append((t0, t1))
            if self.tracer is not None:
                self.tracer.item = None

    def op(self, label, fn, *args, **kwargs):
        """One operation: its result, or OpFailed after counting the failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # the benchmark keeps running past a failed call
            self.failed += 1
            self.failures.append("%s: %s: %s" % (label, type(e).__name__, e))
            raise OpFailed(label) from e

    def fail(self, label, message):
        """Count an operation that returned but failed, e.g. a bad exit code."""
        self.failed += 1
        self.failures.append("%s: %s" % (label, message))
        raise OpFailed(label)

    def skip(self, label, n):
        """Count n operations that could not start because an earlier one failed."""
        self.attempted += n
        self.failed += n
        self.failures.append("%s: %d operations skipped" % (label, n))

    def expect(self, ok, message):
        if not ok:
            self.errors.append(message)

    def scaled(self):
        """(label, rung, seconds) of each item, rescaled by the clock's samples."""
        if self.clock is None:
            return list(self.items)
        return [(label, rung, s * self.clock.scale(*window))
                for (label, rung, s), window in zip(self.items, self.windows)]

    def stage_seconds(self, predicate):
        return sum(s for label, rung, s in self.scaled() if predicate(label, rung))

    @property
    def run_s(self):
        return sum(s for _, _, s in self.scaled())
