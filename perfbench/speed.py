"""The machine-speed reference the benchmark scales its times by.

The benchmark runs on a few cores of a shared host. There the same
repeat runs up to 2x slower for seconds or minutes at a time, while the
guest sees no steal time and CPU time equal to wall time, so neither CPU
time nor more repeats take that drift out. A short fixed kernel, run
from a timer signal every ``INTERVAL_S`` while the timed work runs, tells
how fast the machine ran during that work. The kernel is a few sweeps of
the scalar coordinate updates with tiny numpy dot products that glasso
and much of the program are made of. It is the benchmark's own code, so
no change to the program moves it. Its time is CPU time of the thread,
so a kernel run that waits for one of the program's own pool workers
does not count as a slow machine.

A time multiplied by ``Probe.scale()`` is in seconds at the reference
speed: the speed at which one kernel run takes ``REFERENCE_S`` of CPU.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01
REFERENCE_S = 1e-4
_M = np.random.default_rng(0).normal(size=(6, 6))


def kernel() -> None:
    u = np.zeros(6)
    for _ in range(6):
        for k in range(6):
            r = _M[0, k] + 0.5 * (_M[k] @ u - _M[k, k] * u[k])
            u[k] = -r / (1.0 + abs(r))


class Probe:
    """While open, times ``kernel`` every ``INTERVAL_S`` of wall time.

    Uses SIGALRM and the real-time interval timer of the process; forked
    pool workers do not inherit the timer.
    """

    def __init__(self):
        self.times = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.thread_time()
        kernel()
        self.times.append(time.thread_time() - start)

    def __enter__(self):
        kernel()    # the first call in a process is slow
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_s(self) -> float:
        """Mean CPU time of one kernel run; at least one run is made."""
        if not self.times:
            self._tick(None, None)
        return statistics.fmean(self.times)
