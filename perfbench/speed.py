"""Machine-speed sampling: a fixed pure-Python probe run every 20 ms.

On a shared virtual machine the same code runs up to 1.8x faster or slower
from one second to the next, and raw times of identical 25 s runs spread by
25 % between their quartiles.  So every time the benchmark reports is also
scaled to a fixed reference speed.  While a pass runs, a SIGALRM handler
times a short probe every INTERVAL_S; a span's raw seconds (less the time
spent in the handler) are multiplied by REFERENCE_S over the mean probe time
inside the span.  The probe is benchmark code.  It runs right after the
program it interrupted, so it warms the CPU caches with a few untimed steps
before it is timed: a program that walks a large working set then leaves
the timed probe as fast as a small one does (probe_check.py measures this).
The raw times are kept next to the scaled ones in the results.

The handler runs in the main thread between bytecodes, so the process still
has one thread, and it touches nothing of projrep's.
"""

import bisect
import gc
import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

INTERVAL_S = 0.02
# the probe's time at the reference speed; close to its typical time on a
# 2-core x86 virtual machine (Xeon, 2 GHz), so scaled seconds read like
# seconds there
REFERENCE_S = 0.0005
# untimed steps of the kernel that load its code and data into the caches
WARM_STEPS = 14


def _kernel(steps=69):
    # the shape of projrep's inner loops: sparse dict accumulation of Fractions
    acc = {}
    for i in range(1, steps + 1):
        key = (i % 13, i % 7)
        s = acc.get(key, 0) + Fraction(i, 7) * Fraction(3, i + 1)
        if s == 0:
            acc.pop(key, None)
        else:
            acc[key] = s
    return acc


def probe():
    """Seconds the kernel takes now, after a short untimed warm-up.  The
    collector is off while it runs, so the size of the program's heap cannot
    slow the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel(WARM_STEPS)
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples the speed between start() and stop().

    `where`, if given, is called in the handler and its value is kept with
    the sample (the tracer passes its innermost open span).
    """

    def __init__(self, where=None):
        self.samples = []  # (enter, exit, probe seconds, where), in time order
        self._enters = []
        self._where = where
        self._previous = None

    def _tick(self, signum, frame):
        enter = perf_counter()
        took = probe()
        where = self._where() if self._where is not None else None
        self.samples.append((enter, perf_counter(), took, where))
        self._enters.append(enter)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start, end):
        """(seconds spent sampling, factor to reference seconds) for the span
        [start, end].  A span too short to hold a sample takes the nearest
        samples on either side."""
        lo = bisect.bisect_left(self._enters, start)
        hi = bisect.bisect_right(self._enters, end)
        inside = self.samples[lo:hi]
        busy = sum(s[1] - s[0] for s in inside)
        probes = [s[2] for s in inside] or [s[2] for s in self.samples[max(lo - 1, 0):hi + 1]]
        if not probes:
            probes = [probe()]
        return busy, REFERENCE_S / fmean(probes)
