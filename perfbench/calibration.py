"""Machine-speed calibration for the end-to-end timings.

On a shared host the same op can run up to twice as slowly, in swings
that last from a fraction of a second to tens of seconds, because other
tenants load the same cores.  No statistic over a run of a few tens of
seconds removes that, so the end-to-end op timings are reported as
multiples of a fixed kernel ("cal") timed while they run: the kernel
slows with the host, but no change to the package can move it.  The
kernel mixes the kinds of work the package does (bytecode loops, string
and dict building, big-integer bit operations, small numpy calls and
random draws).

The kernel runs from a SIGALRM handler every ``PERIOD_S`` of wall time, so
it is sampled during long ops as well as between short ones.  ``clock()``
is ``time.perf_counter()`` minus the time spent in the handler, and every
op and span is timed with it, so the samples do not count as op time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1         # wall time between kernel samples
# Set-up time is reported as seconds on a host where the kernel takes
# this long (about its time on an unloaded core of a 2-core x86-64 host,
# Python 3.11, numpy 2.4): set-up wall time / kernel time * this.  It is a
# fixed conversion of kernel units to seconds, not a wall time.
REFERENCE_KERNEL_S = 0.0015
_MASK = (1 << 1034) - 1


def kernel() -> int:
    acc = 0
    for i in range(4_000):
        acc += (i * 7919) % 13
    rows = [(i, i & 1, None if i % 3 else i) for i in range(1_000)]
    text = "\n".join(f"{a}\t{b}\t{'-' if c is None else c}" for a, b, c in rows)
    index = {int(line.split("\t")[0]): line for line in text.splitlines()}
    acc += len(index)
    v = 1
    for _ in range(1_000):
        v = ((v << 1) ^ (v >> 3) ^ 0x5DEECE66D) & _MASK
    rng = np.random.default_rng(12345)
    for _ in range(20):
        acc += int(np.count_nonzero(rng.random(2_000) < 0.5))
    return acc + v.bit_count()


class Calibration:
    """Kernel samples on a timer; each op is scaled by the samples around it."""

    def __init__(self):
        self._stamps: list[float] = []    # clock() when each sample was taken
        self._seconds: list[float] = []   # kernel time of each sample
        self._paused = 0.0                # wall time spent in the handler
        self._busy = False

    def start(self):
        kernel()   # the first run pays one-time costs, so it is not a sample
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def clock(self) -> float:
        """Wall time minus the time spent sampling the kernel."""
        while True:
            paused = self._paused
            now = time.perf_counter()
            if paused == self._paused:   # no sample ran in between
                return now - paused

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - t0
        self._stamps.append(t0 - self._paused)
        self._seconds.append(seconds)
        self._paused += seconds
        self._busy = False

    def around(self, start: float, end: float) -> float:
        """Mean kernel time of the samples in [start, end] and the one on either side."""
        lo = max(bisect.bisect_left(self._stamps, start) - 1, 0)
        hi = bisect.bisect_right(self._stamps, end) + 1
        return statistics.fmean(self._seconds[lo:hi])

    def reference_seconds(self, start: float, seconds: float) -> float:
        """``seconds`` of clock time from ``start``, converted to reference seconds."""
        return seconds * REFERENCE_KERNEL_S / self.around(start, start + seconds)

    def summary(self) -> dict:
        """Median kernel time and every (clock time, kernel time) sample."""
        return {"kernel_s.p50": float(np.median(self._seconds)),
                "samples": [[e, s] for e, s in zip(self._stamps, self._seconds)]}
