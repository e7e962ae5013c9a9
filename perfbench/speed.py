"""Machine-speed reference measured while the ops run.

On a shared CPU the same pure-Python work can take 1.7 times longer for
a while and then speed up again, within one run and between runs: on a
2-vCPU virtual machine (Xeon, 2.0 GHz) with busy neighbours, raw median
op times of two 20-second runs of unchanged code differed by 20-40 %.
Both the program and the reference below are interpreted Python doing
exact Fraction arithmetic, so they slow down together.

`SpeedSampler` runs the reference from a SIGALRM handler every
`INTERVAL_S` while ops run (the handler runs in the main thread between
bytecodes; no thread is started).  The handler's own time is kept apart,
so op times exclude it.  Each op time is then reported at reference
speed:

    reported = measured * REFERENCE_S / mean(reference samples near the op)

where "near" is during the op or within `NEAR_S` of it.  ``REFERENCE_S``
is a fixed constant, close to the reference's time on an idle machine,
so reported values are seconds, and a change to the program moves them
exactly as it moves the raw times.  Raw times and the reference samples
go into each run's record file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0006
INTERVAL_S = 0.05
NEAR_S = 0.25

# fixed 4x4 rational matrix for the reference elimination
_MATRIX = [
    [Fraction(3, 7), Fraction(-5, 2), Fraction(8, 9), Fraction(1, 4)],
    [Fraction(-6, 5), Fraction(2, 3), Fraction(7, 8), Fraction(-9, 2)],
    [Fraction(4, 9), Fraction(1, 6), Fraction(-3, 5), Fraction(5, 7)],
    [Fraction(7, 3), Fraction(-8, 9), Fraction(2, 5), Fraction(6, 7)],
]


def reference_work() -> Fraction:
    """Gaussian elimination on a fixed rational matrix, a few times over."""
    det = Fraction(0)
    for _ in range(6):
        a = [row[:] for row in _MATRIX]
        d = Fraction(1)
        for k in range(4):
            d *= a[k][k]
            for i in range(k + 1, 4):
                f = a[i][k] / a[k][k]
                for j in range(k, 4):
                    a[i][j] -= f * a[k][j]
        det += d
    return det


class SpeedSampler:
    """Reference samples (start time, duration) and the time spent taking them."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.samples.append(t1 - t0)
        self.spent_s += time.perf_counter() - t0

    def _handler(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured in [start, end] to seconds at reference speed."""
        lo = bisect.bisect_left(self.times, start - NEAR_S)
        hi = bisect.bisect_right(self.times, end + NEAR_S)
        near = self.samples[lo:hi]
        if not near:  # no sample close by: fall back to the whole run
            near = self.samples
        return REFERENCE_S / statistics.fmean(near)
