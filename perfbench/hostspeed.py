"""How fast the host runs Python, sampled through the measured phases.

On a shared host the speed at which the vCPU runs Python drifts by 1.3x
to 1.6x over minutes, and every op time drifts with it.  The gauge times
a fixed pure-Python loop from a timer signal every `INTERVAL` seconds.
An op's time, times `NOMINAL_S` over the mean loop time around the op,
is the op's time at the host's nominal speed: it moves with the program
and much less with the host.  The signal handler runs in the main
thread between bytecodes, so the program runs unchanged; the time spent
in the handler is taken out of the op times.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.05
NOMINAL_S = 0.0011  # the loop's median time within runs on the machine in BASELINE.md


# Small ints only: the loop allocates no object the garbage collector
# tracks, so it never sets off a collection of the program's heap.
_TABLE = [(i * 7919) % 256 for i in range(1 << 18)]


def _loop() -> int:
    """Reads scattered over a 2 MB list, like the solver's clause walks."""
    table, total, k = _TABLE, 0, 1
    for _ in range(3000):
        k = (k * 1103515245 + 12345) & 0x3FFFF
        if table[k] & 1:
            total += table[k ^ 1]
    return total


class Gauge:
    """Samples the loop's time while in use as a context manager."""

    def __init__(self):
        self.ends: list[float] = []   # when each sample finished
        self.loops: list[float] = []  # the loop's time in each sample
        self.spent = 0.0              # seconds spent sampling so far

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _loop()
        end = time.perf_counter()
        self.ends.append(end)
        self.loops.append(end - start)
        self.spent += end - start

    def __enter__(self) -> "Gauge":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scale(self, start: float, end: float) -> float:
        """`NOMINAL_S` over the mean loop time of the samples from the last
        one before `start` to the first one after `end`."""
        first = max(bisect.bisect_right(self.ends, start) - 1, 0)
        last = bisect.bisect_left(self.ends, end)
        window = self.loops[first:last + 1]
        return NOMINAL_S * len(window) / sum(window)
