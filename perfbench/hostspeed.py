"""Host-speed reference for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent within minutes, so raw wall times of the same work
taken a few minutes apart disagree by more than any useful regression
bound.  Every timed unit of work is therefore bracketed by a fixed
pure-Python reference loop (it does not touch the program under test)
run just before and just after it, and the unit's wall time is reported
at the reference speed: multiplied by :data:`NOMINAL_S` over the mean of
the two reference times.  A program change moves the reported time as
much as it moves the raw time; a host that is uniformly slower for a
while does not.  The run record keeps the median reference time, so raw
seconds can be recovered.

The virtual CPUs of one host can differ in speed at the same moment.
A workload that runs in one process is sampled where that process runs;
one whose work runs in another process (the service) is sampled on every
CPU the benchmark may use, one after the other, and the mean is taken.
"""

import os
import statistics
import time

__all__ = ["NOMINAL_S", "Clock", "sample"]

#: wall time of one reference sample on an unloaded 2-vCPU Xeon host;
#: reported timings read as seconds on such a host
NOMINAL_S = 0.015
#: iterations of the reference loop, and loops per sample (median)
LOOP = 200_000
REPS = 3


def _loop(n):
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def _median_loop():
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        _loop(LOOP)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def sample(every_cpu=False):
    """The reference loop's median wall time right now.

    With ``every_cpu`` the loop runs pinned to each allowed CPU in turn
    (where the platform allows pinning) and the per-CPU medians are
    averaged; the process's CPU affinity is restored afterwards.
    """
    if not (every_cpu and hasattr(os, "sched_setaffinity")):
        return _median_loop()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(_median_loop())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


class Clock:
    """Brackets timed units with reference samples and scales their times.

    Call :meth:`mark` just before a unit and :meth:`factor` just after
    it; multiply the unit's wall time by the returned factor.  Units
    that follow each other with nothing in between may skip
    :meth:`mark`: the last sample taken is the next unit's "before".
    """

    def __init__(self, every_cpu=False):
        self.every_cpu = every_cpu
        self.samples = []
        self._before = None

    def mark(self):
        self._before = sample(self.every_cpu)
        self.samples.append(self._before)

    def factor(self):
        after = sample(self.every_cpu)
        self.samples.append(after)
        before, self._before = self._before, after
        return NOMINAL_S / ((before + after) / 2.0)

    def reference_s(self):
        """Median reference time over the run (``0.0`` before any sample)."""
        return statistics.median(self.samples) if self.samples else 0.0
