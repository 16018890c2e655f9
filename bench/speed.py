"""Machine-speed calibration: a fixed loop timed between ops, and the correction it gives.

The benchmark shares its cores with other tenants.  For tens of seconds at a
time they slow every pure-Python instruction by 10 to 50%, user CPU time
included, and a run of 20 s cannot sample its way past that: the best of a
few repeats of an op of 100 ms or more is as slow as the phase it ran in.
So the benchmark times a fixed exact-rational loop, unrelated to nilorbit,
during and between the ops, and divides each op's time by the loop's mean
time around and inside the op.  Multiplied by `REF_S`, that gives the op's
time at the reference speed, at which the loop takes `REF_S` seconds.  The
ratio moves with the program and not with the machine's load; the raw times
are printed beside it.

Inside a timed region the loop runs from a SIGVTALRM handler every
`INTERVAL_S` of the process's user CPU time; the time it takes there is
subtracted from the region's wall and CPU time.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

REF_S = 0.0005  # the loop's time at the reference speed (about its unloaded time on a 2-core Xeon VM)
DUTY = 0.03  # after an op, the loop runs for about this share of the op's time (at least once)
MAX_SAMPLES = 60  # loop runs after one op
INTERVAL_S = 0.01  # user CPU time between loop runs inside a timed region
WINDOW_S = 0.2  # loop samples this far before an op's start and after its end set its speed


def calibration_loop():
    """Fixed work of the kind nilorbit does: exact rational sums with growing denominators."""
    acc = Fraction(0)
    step = Fraction(1, 3)
    for i in range(1, 120):
        acc += step * i / (i + 1)
    return acc


class SpeedLog:
    """Timed runs of the calibration loop, as (start s, duration s) in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.inside_s = 0.0  # loop time inside the current timed region

    def sample(self, n=1):
        for _ in range(n):
            t0 = perf_counter()
            calibration_loop()
            self.starts.append(t0)
            self.durations.append(perf_counter() - t0)

    def _on_timer(self, signum, frame):
        n = len(self.durations)
        self.sample()
        self.inside_s += self.durations[n]

    def start(self):
        """Sample inside a timed region from now on."""
        self.inside_s = 0.0
        signal.signal(signal.SIGVTALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop sampling inside; returns the seconds the loop took since `start`."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        return self.inside_s

    def after_op(self, op_s):
        """Sample in proportion to the op's length, so that long ops get their own samples."""
        self.sample(max(1, min(MAX_SAMPLES, int(op_s * DUTY / REF_S))))

    def loop_s(self, start, end, window=WINDOW_S):
        """Mean loop time over the samples from `window` before `start` to `window` after `end`."""
        lo = bisect.bisect_left(self.starts, start - window)
        hi = bisect.bisect_right(self.starts, end + window)
        if lo == hi:  # no sample that close: take the next one, or the last
            return self.durations[min(lo, len(self.durations) - 1)]
        return sum(self.durations[lo:hi]) / (hi - lo)

    def scale(self, start, end):
        """Factor that turns a time measured between `start` and `end` into one at the reference speed."""
        return REF_S / self.loop_s(start, end)
