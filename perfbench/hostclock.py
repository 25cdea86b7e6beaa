"""A clock that runs in reference seconds rather than wall seconds.

The benchmark's host is a shared virtual machine whose CPUs switch
between a fast and a slow state, often for a minute or more at a time;
a pure-Python loop runs anything up to 1.7 times slower in the slow
state.  No statistic within one run filters a stretch that long, so
the benchmark times its work with this clock instead:

* every CALIBRATE_EVERY seconds of wall time, at the next reading of
  the clock, it times a fixed, stdlib-only reference kernel (the
  fastest of BURST runs) and takes the host's current speed as
  REFERENCE_S over that time;
* wall time between two readings is scaled by the host's speed, the
  mean of the speeds measured at either end when a calibration falls
  at the later one;
* the calibration itself is left out of the time line.

A reference second is therefore the time in which the kernel runs
1 / REFERENCE_S times on its fastest observed state; on a quiet host
of the kind the benchmark was written on, it is within a few per cent
of a wall second.  The kernel imports nothing from curvext, so a
change to the program moves the program's times and not the speed it
is measured against.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 100e-6      # nominal time of one kernel run
CALIBRATE_EVERY = 0.02    # wall seconds between calibrations
BURST = 3                 # kernel runs per calibration; the fastest counts


def kernel():
    """Mixed interpreter work, like the program's: small-integer modular
    arithmetic, dict and list traffic, calls and some Fraction sums."""
    table = {}
    acc = 0
    total = Fraction(0)
    for i in range(300):
        a = (i * 7919 + acc) % 10007
        table[a & 63] = table.get(a & 63, 0) + a
        acc = (acc + a * a) % 65521
        if i % 30 == 0:
            total += Fraction(i + 1, 7)
    return acc + len(table) + total.denominator


def host_speed():
    """The host's speed now: REFERENCE_S over the kernel's fastest run."""
    pc = time.perf_counter
    best = float("inf")
    for _ in range(BURST):
        t0 = pc()
        kernel()
        best = min(best, pc() - t0)
    return REFERENCE_S / best


class HostClock:
    """Call it for the time in reference seconds since it was made."""

    def __init__(self):
        self.speed = host_speed()
        self.last = time.perf_counter()
        self.due = self.last + CALIBRATE_EVERY
        self.now = 0.0
        self.calibration_s = 0.0    # wall time spent calibrating

    def __call__(self):
        pc = time.perf_counter
        wall = pc()
        if wall < self.due:
            self.now += (wall - self.last) * self.speed
            self.last = wall
            return self.now
        speed = host_speed()
        self.now += (wall - self.last) * (self.speed + speed) / 2
        self.speed = speed
        self.last = pc()
        self.due = self.last + CALIBRATE_EVERY
        self.calibration_s += self.last - wall
        return self.now
