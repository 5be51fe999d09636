"""The machine's speed, sampled inside the process being timed.

On the shared VM this benchmark was built on, one process runs the same code
at one of two speeds about 1.6 times apart, keeps one for seconds to minutes
and may switch; which one a process gets does not depend on the code.  A
fixed piece of pure-Python work, the reference, slows down with linid: timed
in the same process, it cut the spread of 30 set-up probes from 45% to 9%.

So every time metric is CPU time divided by the reference time measured
around it, times ``NOMINAL_S``: the CPU time the work would take at the
speed at which the reference takes 4 ms.  During timed passes a profiling
timer takes a reference sample every ``INTERVAL_S`` of CPU time; the
samples' own CPU time is taken out of the operations they interrupt.

CPU time is read from the thread clock (``time.thread_time``; the benchmark
and linid run in one thread): while an interval timer is armed, Linux
advances the process CPU clock only at scheduler ticks, 4 ms apart on that
VM, while the thread clock keeps its nanosecond steps.
"""
from __future__ import annotations

import bisect
import signal
import time

NOMINAL_S = 0.004
INTERVAL_S = 0.1
# samples taken this long (in CPU time) before an operation starts or
# after it ends still count towards its speed
WINDOW_S = 0.25
REFERENCE_ITERATIONS = 3000


def reference_seconds() -> float:
    """CPU time of the reference: dict updates on tuple keys, then a sort."""
    start = time.thread_time()
    counts: dict = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 7919 % 1009, i % 7)
        counts[key] = counts.get(key, 0) + 1
    sorted(str(key) for key in counts)
    return time.thread_time() - start


class Sampler:
    """Reference samples from SIGPROF while active (``with sampler:``)."""

    def __init__(self):
        self.at: list[float] = []  # thread CPU time at which each sample began
        self.took: list[float] = []  # CPU time of each reference run
        self.spent = [0.0]  # CPU time spent in the handler before each sample

    def _sample(self, _signum, _frame) -> None:
        start = time.thread_time()
        self.took.append(reference_seconds())
        self.at.append(start)
        self.spent.append(self.spent[-1] + time.thread_time() - start)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def spent_in(self, start: float, end: float) -> float:
        """CPU time the samples took between two readings of the thread
        CPU clock."""
        return self.spent[bisect.bisect_left(self.at, end)] - self.spent[bisect.bisect_left(self.at, start)]

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean duration of the samples taken from
        ``WINDOW_S`` before ``start`` to ``WINDOW_S`` after ``end``, or of all
        samples when none falls there.  The mean, not the median: samples come
        at equal steps of CPU time, so a slow stretch gets its share."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        took = self.took[lo:hi] or self.took
        return NOMINAL_S * len(took) / sum(took)
