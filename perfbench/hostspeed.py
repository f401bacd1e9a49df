"""The host's speed, from a fixed reference job timed all through a run.

The benchmark runs on a few CPUs of a shared host whose speed changes by a
third or more over seconds and minutes, for CPU time as much as for wall
time.  A time taken alone measures that speed as much as patlab.  So the
benchmark times a fixed pure-Python job right before and right after every
timed interval (by the benchmark process around each launch of a child,
by a worker after set-up and after each operation), and reports each
interval scaled to a reference speed:

    scaled = seconds * REFERENCE_S / median(readings of the job near the interval)

that is, the seconds it would take on a host where the job takes
REFERENCE_S.  The job runs no patlab code, and runs with the garbage
collector off, so a large heap left by patlab adds no collections to it: a
change to patlab moves a scaled time by the same share as the raw one,
while a change in the host's speed moves both alike.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# about the job's median on the 2-CPU VM of the README's figures, so that
# scaled times read close to that VM's seconds
REFERENCE_S = 0.005
# readings this close to an interval speak for it: a single reading is
# noisy (readings of one run range over a factor of two), and within a
# second or so of an interval there are a few more
WINDOW_S = 1.0


def _job() -> None:
    # Fraction arithmetic on growing integers (as in the exact engine),
    # tuples in a set and a sort (as in perms)
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, 2 * i + 1)
    seen = set()
    for i in range(4000):
        seen.add((i % 97, i % 89, i & 7))
    sorted(seen, reverse=True)


def reference_loop() -> float:
    """Seconds the job takes now: the median of three runs, with gc off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _job()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]


def reading() -> tuple[float, float]:
    """(time.monotonic() now, seconds the job takes now)."""
    return time.monotonic(), reference_loop()


def scaled(seconds: float, t0: float, t1: float, readings) -> float:
    """`seconds`, timed from monotonic t0 to t1, at the reference speed.

    The host's speed is the median of the readings taken within WINDOW_S
    of the interval; every interval has a reading right before and right
    after it.
    """
    near = [v for t, v in readings if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
    return seconds * REFERENCE_S / statistics.median(near)
