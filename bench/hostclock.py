"""A clock that reads in reference seconds, steady under a varying host.

The benchmark runs on a few cores of a shared host whose speed changes by
up to a factor of two in phases of seconds to a minute.  A plain wall
clock then measures the host as much as the engine.  ``HostClock`` keeps
sampling the host's current speed from inside the process: a timer signal
fires every ``INTERVAL_S`` of wall time and its handler runs a fixed,
engine-like calibration kernel (tuple keys, dict updates, rationals).
The kernel's code is fixed, so its duration changes only with the host.
The handler warms the kernel with a short run and times a second run,
with the garbage collector paused, so the sample does not depend on what
the engine left in the caches or on the engine's heap.

While the clock runs, callers read ``net()``: wall time less the time the
handler took.  Afterwards ``ref_between(a, b)`` turns an interval of net
time into reference seconds by integrating the host's speed
``REFERENCE_KERNEL_S / kernel time`` over it.  The speed between two
samples is interpolated linearly, after a running median of three drops
single disturbed samples, so an interval is judged by the samples on both
sides of it.  A piece of work then reads the same number of reference
seconds in a slow phase as in a fast one.  ``REFERENCE_KERNEL_S`` is a
constant, and nothing in the kernel depends on the engine, so a change
to the engine moves reference seconds as it would move wall seconds on a
steady host.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
KERNEL_ROUNDS = 2000
WARMUP_ROUNDS = 500
# One warm kernel run on a 2-core Xeon VM under CPython 3.11, in a fast phase.
REFERENCE_KERNEL_S = 0.0014
BURST = 3


def kernel(rounds=KERNEL_ROUNDS):
    """Fixed work shaped like the engine's: hashing, dicts and rationals."""
    table = {}
    x = 12345
    total = Fraction(0)
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 3, (x >> 2) & 3, (x >> 4) & 7, ("P", (x >> 7) & 1))
        table[key] = table.get(key, 0) + 1
        if i % 25 == 0:
            total += Fraction(x & 255, 1 + (x >> 8 & 15))
    return len(table), total


class HostClock:
    def __init__(self):
        self.handler_s = 0.0
        self.times: list[float] = []  # net time of each sample
        self.factors: list[float] = []  # kernel time / REFERENCE_KERNEL_S
        self._speeds: list[float] = []
        self._previous = None
        self._busy = False

    # -- sampling ---------------------------------------------------------

    def _sample(self, *_):
        if self._busy:  # the timer fired during a sample taken by hand
            return
        self._busy = True
        clock = time.perf_counter
        start = clock()
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel(WARMUP_ROUNDS)
            begin = clock()
            kernel()
            took = clock() - begin
            self.times.append(start - self.handler_s)
            self.factors.append(took / REFERENCE_KERNEL_S)
            self.handler_s += clock() - start
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def resample(self):
        """Take ``BURST`` samples at once.

        Used before timing something shorter than ``INTERVAL_S``, so that
        fresh samples lie right next to it.
        """
        for _ in range(BURST):
            self._sample()

    def start(self):
        """Take a few samples at once, then keep sampling on a timer."""
        self.resample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        """Stop the timer, take a last few samples and restore the handler."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self.resample()

    # -- reading ----------------------------------------------------------

    def net(self) -> float:
        """Wall seconds, less the time the sampling itself took."""
        return time.perf_counter() - self.handler_s

    def _speed_at(self, index, t):
        """The interpolated speed at net time ``t``, before sample ``index``."""
        times, speeds = self.times, self._speeds
        if index <= 0:
            return speeds[0]
        if index >= len(times):
            return speeds[-1]
        t0, t1 = times[index - 1], times[index]
        s0, s1 = speeds[index - 1], speeds[index]
        return s0 + (s1 - s0) * (t - t0) / (t1 - t0) if t1 > t0 else s1

    def ref_between(self, a: float, b: float) -> float:
        """Reference seconds of the work done between net times a and b."""
        if len(self._speeds) != len(self.factors):
            f = self.factors
            self._speeds = [
                1 / statistics.median(f[max(i - 1, 0) : i + 2]) for i in range(len(f))
            ]
        times = self.times
        lo = bisect.bisect_right(times, a)
        hi = bisect.bisect_left(times, b)
        points = [(a, self._speed_at(lo, a))]
        points += [(times[i], self._speeds[i]) for i in range(lo, hi)]
        points.append((b, self._speed_at(hi, b)))
        return sum(
            (t1 - t0) * (s0 + s1) / 2 for (t0, s0), (t1, s1) in zip(points, points[1:])
        )
